package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/fleettest"
	"ioagent/internal/fleet/node"
	"ioagent/internal/iosim"
)

// startRouter fronts the nodes with a Router served over httptest and
// returns it with an SDK client pointed at the router — callers talk to
// the cluster exactly as they would to one daemon — plus the router's
// base URL for raw HTTP assertions.
func startRouter(t *testing.T, nodes []*node.Node) (*Router, *client.Client, string) {
	t.Helper()
	return startRouterCfg(t, fleettest.URLs(nodes), "", 0)
}

func routerTrace(t *testing.T, seed int) []byte {
	t.Helper()
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*19 + 7, NProcs: 2, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/router/job%02d.ex", seed),
	})
	f := sim.OpenShared(fmt.Sprintf("/scratch/rt-%03d.dat", seed), iosim.POSIX, false, nil)
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

func nodeByURL(nodes []*node.Node, url string) *node.Node {
	for _, n := range nodes {
		if n.URL() == url {
			return n
		}
	}
	return nil
}

// TestRouterForwardsByOwnership: the router is transparent — the SDK
// round-trips through it as if it were one daemon — and each submission
// lands on the ring owner of its bytes.
func TestRouterForwardsByOwnership(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	rt, c, _ := startRouter(t, nodes)
	ctx := context.Background()

	owners := map[string]bool{}
	for seed := 0; seed < 5; seed++ {
		raw := routerTrace(t, seed)
		owner := nodeByURL(nodes, rt.Route(raw)[0])
		info, err := c.Submit(ctx, api.SubmitRequest{Lane: api.LaneBatch, Tenant: "acme", Trace: raw})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(info.ID, owner.ID+"-job-") {
			t.Fatalf("seed %d: job %s not on ring owner %s", seed, info.ID, owner.ID)
		}
		owners[owner.ID] = true
		diag, err := c.WaitDiagnosis(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if diag.Text == "" || diag.Lane != api.LaneBatch {
			t.Fatalf("seed %d: diagnosis = %+v", seed, diag)
		}
	}
	// Spread is a property of the ring, not of the 5 digests we happened
	// to submit (an unlucky port draw can skew a small sample onto one
	// node): probe enough distinct digests that a single-owner result
	// means the ring really is degenerate.
	for seed := 5; seed < 40 && len(owners) < 2; seed++ {
		owners[nodeByURL(nodes, rt.Route(routerTrace(t, seed))[0]).ID] = true
	}
	if len(owners) < 2 {
		t.Errorf("40 digests all landed on one node; sharding is not spreading (owners=%v)", owners)
	}

	// The merged listing sees every job regardless of node.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 5 {
		t.Errorf("merged listing = %d jobs, want 5", len(jobs))
	}
}

// TestRouterWarmDigestSurvivesRouterRestart is the acceptance scenario:
// ownership is a pure function of the member list, so a brand-new router
// finds a previously diagnosed trace in the owning node's cache.
func TestRouterWarmDigestSurvivesRouterRestart(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2")
	_, c1, _ := startRouter(t, nodes)
	ctx := context.Background()

	raw := routerTrace(t, 30)
	info, err := c1.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.WaitDiagnosis(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	// "Restart": an entirely fresh router over the same member list.
	_, c2, _ := startRouter(t, nodes)
	hit, err := c2.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Errorf("restarted router missed the warm digest: %+v", hit)
	}
	if nodeFromJob(hit.ID) != nodeFromJob(info.ID) {
		t.Errorf("ownership moved across router restart: %s -> %s", info.ID, hit.ID)
	}
}

func nodeFromJob(id string) string {
	if i := strings.LastIndex(id, "-job-"); i > 0 {
		return id[:i]
	}
	return ""
}

// TestRouterFailsOverToSuccessor is the ISSUE failover scenario: owner
// down -> the successor serves the submission; the result cached at the
// successor is found again on re-lookup (an idempotent resubmit of the
// same bytes) while the owner stays down.
func TestRouterFailsOverToSuccessor(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	rt, c, _ := startRouter(t, nodes)
	ctx := context.Background()

	raw := routerTrace(t, 40)
	route := rt.Route(raw)
	owner, successor := nodeByURL(nodes, route[0]), nodeByURL(nodes, route[1])
	owner.Abort()

	info, err := c.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.ID, successor.ID+"-job-") {
		t.Fatalf("job %s did not fail over to successor %s", info.ID, successor.ID)
	}
	diag, err := c.WaitDiagnosis(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Text == "" {
		t.Fatal("empty diagnosis from successor")
	}

	// Re-lookup: the owner is still down, the successor's cache answers.
	again, err := c.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !strings.HasPrefix(again.ID, successor.ID+"-job-") {
		t.Fatalf("re-lookup = %+v, want cache hit on %s", again, successor.ID)
	}
}

// TestRouterDeadNodeJobLookup: polling a job on a dead node reports
// job_not_found (the SDK recovery path: resubmit idempotently), not a
// hang or an opaque 5xx.
func TestRouterDeadNodeJobLookup(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2")
	rt, c, _ := startRouter(t, nodes)
	ctx := context.Background()

	raw := routerTrace(t, 50)
	info, err := c.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDiagnosis(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	nodeByURL(nodes, rt.Route(raw)[0]).Abort()

	_, err = c.Job(ctx, info.ID)
	if api.ErrorCode(err) != api.CodeJobNotFound {
		t.Fatalf("dead-node lookup = %v, want job_not_found", err)
	}

	// And the recovery path works end to end: resubmit -> successor.
	re, err := c.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDiagnosis(ctx, re.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRouterAggregatesMetrics: /metrics via the router sums the nodes, in
// both renderings.
func TestRouterAggregatesMetrics(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	_, c, base := startRouter(t, nodes)
	ctx := context.Background()

	const submissions = 6
	for seed := 0; seed < submissions; seed++ {
		info, err := c.Submit(ctx, api.SubmitRequest{Tenant: "acme", Trace: routerTrace(t, 60+seed)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitDiagnosis(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != submissions || m.Done != submissions {
		t.Errorf("aggregate submitted/done = %d/%d, want %d", m.Submitted, m.Done, submissions)
	}
	if m.Tenants["acme"] != submissions {
		t.Errorf("aggregate tenants = %v, want acme:%d", m.Tenants, submissions)
	}
	if m.Workers != 6 { // 3 nodes x 2 workers
		t.Errorf("aggregate workers = %d, want 6", m.Workers)
	}

	// Prometheus rendering carries the same aggregate.
	req, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf("fleet_jobs_submitted_total %d", submissions),
		`fleet_tenant_jobs_total{tenant="acme"} 6`,
		"fleet_owned_digests 6",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("aggregate exposition missing %q", want)
		}
	}
}

// TestRouterClusterHealth: the roster endpoint reports node ids, health,
// and the router's identity, flipping when a node dies.
func TestRouterClusterHealth(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2")
	rt, _, _ := startRouter(t, nodes)
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)

	fetch := func() api.ClusterHealth {
		resp, err := http.Get(srv.URL + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h api.ClusterHealth
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := fetch()
	if h.Router != "router" || len(h.Nodes) != 2 {
		t.Fatalf("health = %+v, want router id and 2 nodes", h)
	}
	for _, row := range h.Nodes {
		if !row.Healthy || row.Node == "" {
			t.Errorf("row %+v, want healthy with a node id", row)
		}
	}

	nodes[1].Abort()
	h = fetch()
	unhealthy := 0
	for _, row := range h.Nodes {
		if !row.Healthy {
			unhealthy++
		}
	}
	if unhealthy != 1 {
		t.Errorf("after killing one node, unhealthy rows = %d, want 1", unhealthy)
	}
}

// TestRouterLoopDetected: a request that already crossed a router is
// refused with loop_detected — both a synthetic forwarded request and a
// real router-behind-router misconfiguration.
func TestRouterLoopDetected(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1")
	rt, _, _ := startRouter(t, nodes)
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)

	// Synthetic: any forwarded request bounces.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs", nil)
	req.Header.Set(api.ForwardedHeader, "other-router")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusLoopDetected || e.Code != api.CodeLoopDetected {
		t.Errorf("forwarded request = %s / %q, want 508 loop_detected", resp.Status, e.Code)
	}

	// Real misconfiguration: a second router whose member list names the
	// first router. Submissions must fail with loop_detected, not bounce.
	rt2, err := New(Config{
		ID:      "outer",
		Members: []string{srv.URL},
		ClientOptions: []client.Option{
			client.WithRetry(1, time.Millisecond),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt2.Close)
	srv2 := httptest.NewServer(rt2.Handler())
	t.Cleanup(srv2.Close)
	c2 := client.New(srv2.URL)
	t.Cleanup(c2.Close)
	_, err = c2.Submit(context.Background(), api.SubmitRequest{Trace: routerTrace(t, 70)})
	if api.ErrorCode(err) != api.CodeLoopDetected {
		t.Errorf("router-behind-router submit = %v, want loop_detected", err)
	}
}

// TestRouterValidatesBeforeKeying: a buffered submission on an unknown
// lane is refused with bad_request before the router computes a route
// key — a multi-megabyte body costs it a bounded read and nothing else.
func TestRouterValidatesBeforeKeying(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2")
	rt, _, base := startRouter(t, nodes)
	body := bytes.Repeat([]byte("POSIX\t-1\t1\tPOSIX_OPENS\t1\t/f\t/\text4\n"), 4<<20/36)
	resp, err := http.Post(base+"/v1/jobs?lane=express", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e api.Error
	decodeJSON(t, resp, &e)
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
		t.Errorf("bad lane = %s / %q, want 400 bad_request", resp.Status, e.Code)
	}
	if st := rt.cluster.MemoStats(); st.Hits+st.Misses != 0 {
		t.Errorf("the router ran the front door for a submission it refused: %+v", st)
	}
	for _, n := range nodes {
		if m := n.Pool.Metrics(); m.Submitted != 0 {
			t.Errorf("node %s saw the refused submission", n.ID)
		}
	}
}
