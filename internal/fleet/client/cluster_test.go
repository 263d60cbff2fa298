package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/server"
	"ioagent/internal/ioagent"
	"ioagent/internal/iosim"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
)

// httpCapture records api.ForwardedHeader off each request, then proxies
// it to the real daemon at target.
func httpCapture(got *string, target string) http.Handler {
	u, err := url.Parse(target)
	if err != nil {
		panic(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(u)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		*got = r.Header.Get(api.ForwardedHeader)
		proxy.ServeHTTP(w, r)
	})
}

// clusterNode is one in-process daemon: a real pool behind the real
// server mux.
type clusterNode struct {
	id   string
	pool *fleet.Pool
	srv  *httptest.Server
}

func startNodes(t *testing.T, ids ...string) []*clusterNode {
	t.Helper()
	index := knowledge.BuildIndex()
	nodes := make([]*clusterNode, len(ids))
	for i, id := range ids {
		pool := fleet.New(llm.NewSim(), fleet.Config{
			Workers: 2, NodeID: id,
			Agent: ioagent.Options{Index: index},
		})
		srv := httptest.NewServer(server.NewMux(server.Config{Pool: pool, NodeID: id}))
		nodes[i] = &clusterNode{id: id, pool: pool, srv: srv}
		t.Cleanup(pool.Close)
		t.Cleanup(srv.Close)
	}
	return nodes
}

func clusterOf(t *testing.T, nodes []*clusterNode, opts ...Option) *Cluster {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.srv.URL
	}
	opts = append([]Option{
		WithRetry(1, time.Millisecond),
		WithPollInterval(5 * time.Millisecond),
	}, opts...)
	cl, err := NewCluster(urls, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func clusterTrace(t *testing.T, seed int) []byte {
	t.Helper()
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*13 + 3, NProcs: 2, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/cluster/job%02d.ex", seed),
	})
	f := sim.OpenShared(fmt.Sprintf("/scratch/cl-%03d.dat", seed), iosim.POSIX, false, nil)
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

// memberNode maps a member URL back to its node for assertions.
func memberNode(nodes []*clusterNode, member string) *clusterNode {
	for _, n := range nodes {
		if n.srv.URL == member {
			return n
		}
	}
	return nil
}

// TestClusterRoutesByDigestOwnership: a submission lands on the ring
// owner of its bytes, the returned job ID carries that node's prefix,
// and a resubmission of the same bytes is a cache hit on the same node.
func TestClusterRoutesByDigestOwnership(t *testing.T) {
	nodes := startNodes(t, "n1", "n2", "n3")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	for seed := 0; seed < 4; seed++ {
		raw := clusterTrace(t, seed)
		owner := memberNode(nodes, cl.Route(raw)[0])
		info, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw, Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(info.ID, owner.id+"-job-") {
			t.Fatalf("seed %d: job %s not on ring owner %s", seed, info.ID, owner.id)
		}
		if _, err := cl.WaitDiagnosis(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		dup, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw})
		if err != nil {
			t.Fatal(err)
		}
		if !dup.CacheHit || !strings.HasPrefix(dup.ID, owner.id+"-job-") {
			t.Fatalf("seed %d: resubmit = %+v, want cache hit on %s", seed, dup, owner.id)
		}
	}

	// A fresh cluster over the same members (a "router restart") computes
	// identical ownership: the warm digest still hits.
	cl2 := clusterOf(t, nodes)
	raw := clusterTrace(t, 0)
	info, err := cl2.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Errorf("restarted cluster client missed the warm digest: %+v", info)
	}
}

// TestClusterFailsOverToSuccessor: with the owner down, a submission
// lands on the next ring member; the diagnosis completes there; and a
// re-submission keeps being served from the successor's cache while the
// owner stays down.
func TestClusterFailsOverToSuccessor(t *testing.T) {
	nodes := startNodes(t, "n1", "n2", "n3")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	raw := clusterTrace(t, 9)
	route := cl.Route(raw)
	owner, successor := memberNode(nodes, route[0]), memberNode(nodes, route[1])
	owner.srv.Close() // owner down before the first submission

	info, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.ID, successor.id+"-job-") {
		t.Fatalf("job %s did not fail over to successor %s", info.ID, successor.id)
	}
	diag, err := cl.WaitDiagnosis(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Text == "" {
		t.Fatal("empty diagnosis from successor")
	}

	// Re-lookup via resubmission: still owner-down, the successor answers
	// from its cache.
	again, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !strings.HasPrefix(again.ID, successor.id+"-job-") {
		t.Fatalf("resubmit with owner down = %+v, want cache hit on %s", again, successor.id)
	}
}

// TestClusterLookupDeadNodeSaysNotFound: polling a job whose node died
// yields job_not_found (the resubmit-recovery code), not a hang or a
// transport error.
func TestClusterLookupDeadNodeSaysNotFound(t *testing.T) {
	nodes := startNodes(t, "n1", "n2")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	raw := clusterTrace(t, 2)
	info, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	ownerNode := nodeFromID(info.ID)
	memberNode(nodes, cl.Route(raw)[0]).srv.Close()

	if _, err := cl.Job(ctx, info.ID); api.ErrorCode(err) != api.CodeJobNotFound {
		t.Fatalf("lookup on dead node = %v, want job_not_found", err)
	}
	if _, err := cl.Job(ctx, ownerNode+"-job-999999"); api.ErrorCode(err) != api.CodeJobNotFound {
		t.Fatalf("unknown id on dead node = %v, want job_not_found", err)
	}
}

// TestClusterAggregatesMetricsAndHealth: the cluster metrics document
// sums per-node counters; health lists every member with its node id and
// marks dead ones unhealthy.
func TestClusterAggregatesMetricsAndHealth(t *testing.T) {
	nodes := startNodes(t, "n1", "n2", "n3")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	// Distinct traces spread across nodes; count total submissions.
	const submissions = 6
	for seed := 0; seed < submissions; seed++ {
		info, err := cl.Submit(ctx, api.SubmitRequest{Trace: clusterTrace(t, 20+seed), Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.WaitDiagnosis(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != submissions || m.Done != submissions {
		t.Errorf("aggregate submitted/done = %d/%d, want %d", m.Submitted, m.Done, submissions)
	}
	if m.Tenants["acme"] != submissions {
		t.Errorf("aggregate tenant count = %v, want acme:%d", m.Tenants, submissions)
	}
	if m.OwnedDigests != int64(submissions) {
		t.Errorf("aggregate owned digests = %d, want %d", m.OwnedDigests, submissions)
	}
	if m.Node != "" {
		t.Errorf("aggregate must not claim a node id, got %q", m.Node)
	}

	nodes[2].srv.Close()
	h := cl.Health(ctx)
	if len(h.Nodes) != 3 {
		t.Fatalf("health rows = %d, want 3", len(h.Nodes))
	}
	healthy := 0
	for _, row := range h.Nodes {
		if row.Healthy {
			healthy++
			if row.Node == "" {
				t.Errorf("healthy row %s missing node id", row.URL)
			}
		} else if row.Error == "" {
			t.Errorf("unhealthy row %s missing error class", row.URL)
		}
	}
	if healthy != 2 {
		t.Errorf("healthy members = %d, want 2", healthy)
	}
}

// TestClusterMetricsPartialFanOut: metrics aggregation degrades, not
// fails — one dead member leaves the reachable nodes' sums intact, and
// node_down surfaces only when EVERY member is gone.
func TestClusterMetricsPartialFanOut(t *testing.T) {
	nodes := startNodes(t, "n1", "n2", "n3")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	const submissions = 4
	done := 0
	for seed := 0; seed < submissions; seed++ {
		raw := clusterTrace(t, 40+seed)
		info, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.WaitDiagnosis(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		// Track how many landed OFF the node we are about to kill, so the
		// degraded aggregate has a floor to assert against.
		if memberNode(nodes, cl.Route(raw)[0]) != nodes[0] {
			done++
		}
	}

	nodes[0].srv.Close()
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics with one member down = %v, want degraded aggregate", err)
	}
	if m.Done < int64(done) {
		t.Errorf("degraded aggregate done = %d, want >= %d from surviving nodes", m.Done, done)
	}
	if m.Workers != 4 {
		t.Errorf("degraded aggregate workers = %d, want 4 (two surviving pools)", m.Workers)
	}

	nodes[1].srv.Close()
	nodes[2].srv.Close()
	if _, err := cl.Metrics(ctx); api.ErrorCode(err) != api.CodeNodeDown {
		t.Fatalf("metrics with all members down = %v, want node_down", err)
	}
}

// TestClusterHealthErrorIsStableCode: an unreachable member's health row
// carries a stable classification, never the transport error text — raw
// dial strings embed ephemeral ports and don't belong in a wire payload.
func TestClusterHealthErrorIsStableCode(t *testing.T) {
	nodes := startNodes(t, "n1", "n2")
	cl := clusterOf(t, nodes)
	deadURL := nodes[1].srv.URL
	nodes[1].srv.Close()

	h := cl.Health(context.Background())
	if len(h.Nodes) != 2 {
		t.Fatalf("health rows = %d, want 2", len(h.Nodes))
	}
	for _, row := range h.Nodes {
		if row.URL != deadURL {
			if !row.Healthy {
				t.Errorf("live member %s reported unhealthy: %q", row.URL, row.Error)
			}
			continue
		}
		if row.Healthy {
			t.Fatalf("dead member %s reported healthy", row.URL)
		}
		// Stable classes are single snake_case tokens ("unreachable",
		// "node_down", ...), never prose or an error chain.
		if row.Error == "" || strings.ContainsAny(row.Error, " :/") {
			t.Errorf("dead member error %q is not a stable class", row.Error)
		}
		for _, leak := range []string{"dial", "connection refused", "127.0.0.1"} {
			if strings.Contains(row.Error, leak) {
				t.Errorf("dead member error %q leaks transport detail %q", row.Error, leak)
			}
		}
	}
}

// TestClusterUpdateMembers: the elastic-roster entry point. A join adds
// exactly the new member and reroutes over three nodes; a same-set update
// (any order, trailing slashes) is a no-op; an empty or all-blank list
// never evicts the last known-good view; a leave closes out the member.
func TestClusterUpdateMembers(t *testing.T) {
	nodes := startNodes(t, "n1", "n2", "n3")
	two := []string{nodes[0].srv.URL, nodes[1].srv.URL}
	cl, err := NewCluster(two, WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	added, removed := cl.UpdateMembers([]string{nodes[1].srv.URL + "/", nodes[0].srv.URL})
	if len(added)+len(removed) != 0 {
		t.Fatalf("same-set update = +%v -%v, want no-op", added, removed)
	}
	added, removed = cl.UpdateMembers(nil)
	if len(added)+len(removed) != 0 || len(cl.Members()) != 2 {
		t.Fatalf("empty update changed membership: +%v -%v members %v", added, removed, cl.Members())
	}

	three := append(append([]string(nil), two...), nodes[2].srv.URL)
	added, removed = cl.UpdateMembers(three)
	if len(added) != 1 || added[0] != nodes[2].srv.URL || len(removed) != 0 {
		t.Fatalf("join diff = +%v -%v, want +[%s]", added, removed, nodes[2].srv.URL)
	}
	if got := cl.Members(); len(got) != 3 {
		t.Fatalf("members after join = %v, want 3", got)
	}
	// The grown ring must actually route to the joined member for some
	// digest — otherwise the rebuild silently didn't happen.
	routed := false
	for seed := 0; seed < 32 && !routed; seed++ {
		routed = cl.Route(clusterTrace(t, 60+seed))[0] == nodes[2].srv.URL
	}
	if !routed {
		t.Fatal("no digest routed to the joined member; ring not rebuilt")
	}

	added, removed = cl.UpdateMembers([]string{nodes[1].srv.URL, nodes[2].srv.URL})
	if len(removed) != 1 || removed[0] != nodes[0].srv.URL || len(added) != 0 {
		t.Fatalf("leave diff = +%v -%v, want -[%s]", added, removed, nodes[0].srv.URL)
	}
	info, err := cl.Submit(context.Background(), api.SubmitRequest{Trace: clusterTrace(t, 61)})
	if err != nil {
		t.Fatalf("submit after leave: %v", err)
	}
	if _, err := cl.WaitDiagnosis(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
}

// TestClusterForwardedByHeader: WithForwardedBy stamps every outbound
// request — the loop-detection contract the router depends on.
func TestClusterForwardedByHeader(t *testing.T) {
	nodes := startNodes(t, "n1")
	var got string
	front := httptest.NewServer(httpCapture(&got, nodes[0].srv.URL))
	defer front.Close()
	c := New(front.URL, WithRetry(1, time.Millisecond), WithForwardedBy("router-7"))
	defer c.Close()
	if _, err := c.Metrics(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != "router-7" {
		t.Errorf("forwarded header = %q, want router-7", got)
	}
}

// TestClusterSubmitValidatesBeforeKeying: a submission every member would
// refuse — unknown lane, over-long tenant — is refused before the route
// key is computed, so a multi-megabyte body costs the front door nothing
// (neither a decode nor a hash: the memo is never consulted).
func TestClusterSubmitValidatesBeforeKeying(t *testing.T) {
	cl, err := NewCluster([]string{"http://127.0.0.1:1"}) // never dialed
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	body := bytes.Repeat([]byte("POSIX\t-1\t1\tPOSIX_OPENS\t1\t/f\t/\text4\n"), 4<<20/36)
	for name, req := range map[string]api.SubmitRequest{
		"bad lane":         {Lane: "express", Trace: body},
		"over-long tenant": {Tenant: strings.Repeat("t", api.MaxTenantLen+1), Trace: body},
	} {
		_, err := cl.Submit(context.Background(), req)
		if api.ErrorCode(err) != api.CodeBadRequest {
			t.Errorf("%s: err %v, want bad_request", name, err)
		}
	}
	if st := cl.MemoStats(); st.Hits+st.Misses != 0 {
		t.Errorf("front door ran for refused submissions: %+v", st)
	}
}

// TestClusterRouteKeyMemoMatchesRouteKey: through the cluster's memo the
// key is RouteKey's, cold and warm, for accepted bytes (the content
// digest) and for refused ones (the wire-bytes hash) — and only accepted
// bytes are remembered.
func TestClusterRouteKeyMemoMatchesRouteKey(t *testing.T) {
	cl, err := NewCluster([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	good := clusterTrace(t, 1)
	bad := good[:len(good)/2]
	for call := 1; call <= 3; call++ {
		for name, body := range map[string][]byte{"accepted": good, "refused": bad} {
			if got, want := cl.routeKey(body), RouteKey(body); got != want {
				t.Errorf("call %d, %s bytes: routeKey %s, RouteKey %s", call, name, got, want)
			}
		}
	}
	if st := cl.MemoStats(); st.Hits != 2 || st.Misses != 4 || st.Len != 1 {
		t.Errorf("memo %+v, want 2 hits (accepted bytes, calls 2-3), 4 misses, 1 entry", st)
	}
	// The route half of ROADMAP item 3's fence: keying bytes the memo
	// knows is a hash and a lookup, whatever they would decode to.
	if allocs := testing.AllocsPerRun(20, func() { cl.routeKey(good) }); allocs > 0 {
		t.Errorf("routing memoised bytes allocates %.0f objects, want 0", allocs)
	}
}
