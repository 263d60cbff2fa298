package node_test

// Lifecycle tests for the node constructor: everything here used to be
// reachable only by exec'ing the iofleetd binary. Each test boots real
// nodes in-process, and the reboot tests reuse one state directory.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/fleettest"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/fleet/node"
	"ioagent/internal/fleet/roster"
	"ioagent/internal/iosim"
	"ioagent/internal/llm"
)

// trace is a small deterministic binary trace; distinct seeds give
// distinct digests.
func trace(t *testing.T, seed int) []byte {
	t.Helper()
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*23 + 5, NProcs: 2, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/node/job%02d.ex", seed),
	})
	f := sim.OpenShared(fmt.Sprintf("/scratch/node-%03d.dat", seed), iosim.POSIX, false, nil)
	for i := int64(0); i < 6; i++ {
		f.WriteAt(0, i*4096, 4096)
	}
	f.Close()
	var buf bytes.Buffer
	if err := darshan.Encode(&buf, sim.Finalize()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gate is a model whose calls block until open is called (once, by the
// test's cleanup at the latest), pinning jobs in the running state.
type gate struct {
	inner llm.Client
	ch    chan struct{}
	once  sync.Once
}

func newGate(t *testing.T) *gate {
	g := &gate{inner: llm.NewSim(), ch: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }

func (g *gate) Complete(req llm.Request) (llm.Response, error) {
	<-g.ch
	return g.inner.Complete(req)
}

func sdk(t *testing.T, n *node.Node) *client.Client {
	c := client.New(n.URL(), client.WithRetry(1, time.Millisecond), client.WithPollInterval(5*time.Millisecond))
	t.Cleanup(c.Close)
	return c
}

func journal(t *testing.T, stateDir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(stateDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestStatelessNodeSweepsUploads: -upload-ttl takes effect on the
// maintenance tick whether or not there is a state directory. The parent's
// wiring started the tick only beside a store, so a stateless daemon's
// idle sessions sat until the next POST /v1/uploads.
func TestStatelessNodeSweepsUploads(t *testing.T) {
	n := fleettest.Start(t, node.Config{
		SnapshotInterval: 5 * time.Millisecond,
		Uploads:          ingest.Config{TTL: 20 * time.Millisecond},
	})
	if _, err := sdk(t, n).UploadOpen(context.Background(), client.StreamOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := n.Uploads.Len(); got != 1 {
		t.Fatalf("open sessions = %d, want 1", got)
	}
	fleettest.WaitFor(t, "the idle session to expire with no further Open", func() bool { return n.Uploads.Len() == 0 })
}

// TestFsyncModeValidatedForBothStores: a typo in -fsync is refused
// whichever store would have received it. The parent validated it only
// beside -state-dir and handed the knowledge store the raw string, where
// "alway" behaved as neither always nor off.
func TestFsyncModeValidatedForBothStores(t *testing.T) {
	for name, cfg := range map[string]node.Config{
		"state dir":       {StateDir: t.TempDir()},
		"knowledge state": {Knowledge: &knowledge.Config{}, KnowledgeStateDir: t.TempDir()},
		"stateless":       {},
	} {
		cfg.LLM, cfg.Fsync = llm.NewSim(), "alway"
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if n, err := node.New(cfg, ln); err == nil {
			n.Close()
			t.Errorf("%s: node.New accepted -fsync alway", name)
		}
		if _, err := ln.Accept(); err == nil {
			t.Errorf("%s: a failed New left its listener open", name)
		}
	}
	for _, mode := range []string{"", "always", "batch", "off"} {
		n := fleettest.Start(t, node.Config{StateDir: t.TempDir(), Fsync: mode})
		n.Close()
	}
}

// (a) A drained node leaves a snapshot and an empty journal; the next boot
// on the directory serves the diagnosis as a cache hit.
func TestCloseThenRebootServesFromSnapshot(t *testing.T) {
	dir, raw, ctx := t.TempDir(), trace(t, 1), context.Background()
	n1 := fleettest.Start(t, node.Config{StateDir: dir})
	first, err := sdk(t, n1).SubmitAndWait(ctx, api.SubmitRequest{Trace: raw})
	if err != nil || first.CacheHit {
		t.Fatalf("first diagnosis = %+v, %v; want a fresh one", first, err)
	}
	n1.Close()
	if err := n1.Wait(); err != nil {
		t.Errorf("Wait after Close = %v, want nil", err)
	}
	if j := journal(t, dir); j != "" {
		t.Errorf("journal after a clean drain = %q, want compacted to empty", j)
	}

	n2 := fleettest.Start(t, node.Config{StateDir: dir})
	again, err := sdk(t, n2).SubmitAndWait(ctx, api.SubmitRequest{Trace: raw})
	if err != nil || !again.CacheHit || again.Text != first.Text {
		t.Fatalf("after reboot = hit %v, same text %v, %v; want the cached diagnosis", again.CacheHit, again.Text == first.Text, err)
	}
}

// (b) An aborted node's unfinished job, runtime tenant-class assignment
// and open upload session all come back on the next boot.
func TestAbortThenRebootReplays(t *testing.T) {
	dir, ctx := t.TempDir(), context.Background()
	n1 := fleettest.Start(t, node.Config{StateDir: dir, LLM: newGate(t)})
	c1 := sdk(t, n1)
	info, err := c1.Submit(ctx, api.SubmitRequest{Trace: trace(t, 2), Lane: api.LaneBatch, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(n1.URL()+"/v1/sched/tenants", "application/json", strings.NewReader(`{"tenant":"acme","class":"gold"}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant class assignment: %v, %v", resp, err)
	}
	resp.Body.Close()
	up, err := c1.UploadOpen(ctx, client.StreamOpts{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	chunk := trace(t, 3)[:100]
	if _, err := c1.UploadAppend(ctx, up.ID, 0, chunk); err != nil {
		t.Fatal(err)
	}
	n1.Abort()
	if _, err := c1.Job(ctx, info.ID); err == nil {
		t.Error("an aborted node still answers")
	}

	n2 := fleettest.Start(t, node.Config{StateDir: dir})
	jobs := n2.Pool.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want the 1 unfinished one", len(jobs))
	}
	if _, err := jobs[0].Wait(); err != nil {
		t.Fatal(err)
	}
	if got := jobs[0].Info(); got.Digest != info.Digest || got.Lane != fleet.LaneBatch || got.Tenant != "acme" || got.Status != fleet.StatusDone {
		t.Errorf("replayed job = %+v, want digest %.12s done on the batch lane for acme", got, info.Digest)
	}
	if got := n2.Pool.TenantClasses()["acme"]; got != "gold" {
		t.Errorf("tenant class after reboot = %q, want gold", got)
	}
	st, err := sdk(t, n2).UploadStatus(ctx, up.ID)
	if err != nil || st.Offset != int64(len(chunk)) || st.Tenant != "acme" {
		t.Errorf("upload session after reboot = %+v, %v; want offset %d for acme", st, err, len(chunk))
	}
}

// (c) Two elastic nodes with Replicate 2: a fresh diagnosis on one becomes
// a hit on the other, the join lands in the journal, and both close with
// replication still warm (gossip stops before the pool it reads from).
func TestElasticPairReplicatesAndCloses(t *testing.T) {
	dir, ctx := t.TempDir(), context.Background()
	elastic := func(stateDir string, peers ...string) *node.Node {
		return fleettest.Start(t, node.Config{StateDir: stateDir, Roster: &roster.Config{
			// No expiry in this test: a diagnosis under -race can starve
			// gossip past a tight TTL, and a roster of one replicates nowhere.
			Peers: peers, Interval: 10 * time.Millisecond, TTL: time.Minute, Replicate: 2,
			ClientOpts: []client.Option{client.WithRetry(1, time.Millisecond)},
		}})
	}
	n1 := elastic(dir)
	n2 := elastic("", n1.URL())
	fleettest.WaitFor(t, "the pair to converge", func() bool {
		return len(n1.Roster.Members()) == 2 && len(n2.Roster.Members()) == 2
	})
	if j := journal(t, dir); !strings.Contains(j, `"op":"member_join"`) || !strings.Contains(j, n2.URL()) {
		t.Errorf("journal has no member_join for %s:\n%s", n2.URL(), j)
	}

	raw := trace(t, 4)
	d, err := sdk(t, n1).SubmitAndWait(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	fleettest.WaitFor(t, "the replica to land on the peer", func() bool {
		_, ok := n2.Pool.CacheEntryFor(d.Digest)
		return ok
	})
	hit, err := sdk(t, n2).Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil || !hit.CacheHit {
		t.Fatalf("resubmit on the peer = %+v, %v; want a cache hit", hit, err)
	}

	// Close with inserts still queued for replication on both sides.
	for i := 0; i < 8; i++ {
		n1.Pool.CacheIngest(fmt.Sprintf("late-%d", i), "text", time.Now())
		n2.Pool.CacheIngest(fmt.Sprintf("tardy-%d", i), "text", time.Now())
	}
	n1.Close()
	n2.Close()
}

// (d) A submission that reaches the node while Close is in progress is
// refused with the retryable draining code, and the refusal is journaled.
func TestSubmitDuringCloseIsRefusedAndJournaled(t *testing.T) {
	dir := t.TempDir()
	model := newGate(t)
	n := fleettest.Start(t, node.Config{StateDir: dir, LLM: model})
	if _, err := sdk(t, n).Submit(context.Background(), api.SubmitRequest{Trace: trace(t, 5)}); err != nil {
		t.Fatal(err)
	}

	// A connection that is accepted but has not finished sending its
	// request when the drain starts — the only kind a draining server
	// still reads from. The healthz round trip on a later connection
	// proves the accept loop has taken this one.
	addr := strings.TrimPrefix(n.URL(), "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := trace(t, 6)
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: node\r\nContent-Length: %d\r\n", len(body))
	if resp, err := http.Get(n.URL() + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	closed := make(chan struct{})
	go func() { defer close(closed); n.Close() }()
	fleettest.WaitFor(t, "the listener to close", func() bool {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	conn.Write(append([]byte("\r\n"), body...))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var refusal bytes.Buffer
	refusal.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(refusal.String(), string(api.CodeDraining)) {
		t.Errorf("submit during Close = %s %s, want 503 draining", resp.Status, refusal.String())
	}
	// The running job holds Close in the pool drain, before the final
	// checkpoint compacts audit records away.
	if j := journal(t, dir); !strings.Contains(j, `"op":"reject"`) {
		t.Errorf("journal has no reject record:\n%s", j)
	}
	model.open()
	<-closed
}
