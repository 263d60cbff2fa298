package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"
	"time"

	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/fleettest"
	"ioagent/internal/fleet/node"
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

func clusterOf(t *testing.T, nodes []*node.Node) *client.Cluster {
	t.Helper()
	cl, err := client.NewCluster(fleettest.URLs(nodes),
		client.WithRetry(1, time.Millisecond),
		client.WithPollInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// memberNode maps a member URL back to its node for assertions.
func memberNode(nodes []*node.Node, member string) *node.Node {
	for _, n := range nodes {
		if n.URL() == member {
			return n
		}
	}
	return nil
}

// TestClusterRoutesByDigestOwnership: a submission lands on the ring
// owner of its bytes, the returned job ID carries that node's prefix,
// and a resubmission of the same bytes is a cache hit on the same node.
func TestClusterRoutesByDigestOwnership(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	for seed := 0; seed < 4; seed++ {
		raw := client.ClusterTrace(t, seed)
		owner := memberNode(nodes, cl.Route(raw)[0])
		info, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw, Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(info.ID, owner.ID+"-job-") {
			t.Fatalf("seed %d: job %s not on ring owner %s", seed, info.ID, owner.ID)
		}
		if _, err := cl.WaitDiagnosis(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		dup, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw})
		if err != nil {
			t.Fatal(err)
		}
		if !dup.CacheHit || !strings.HasPrefix(dup.ID, owner.ID+"-job-") {
			t.Fatalf("seed %d: resubmit = %+v, want cache hit on %s", seed, dup, owner.ID)
		}
	}

	// A fresh cluster over the same members (a "router restart") computes
	// identical ownership: the warm digest still hits.
	cl2 := clusterOf(t, nodes)
	raw := client.ClusterTrace(t, 0)
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
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	raw := client.ClusterTrace(t, 9)
	route := cl.Route(raw)
	owner, successor := memberNode(nodes, route[0]), memberNode(nodes, route[1])
	owner.Abort() // owner down before the first submission

	info, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.ID, successor.ID+"-job-") {
		t.Fatalf("job %s did not fail over to successor %s", info.ID, successor.ID)
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
	if !again.CacheHit || !strings.HasPrefix(again.ID, successor.ID+"-job-") {
		t.Fatalf("resubmit with owner down = %+v, want cache hit on %s", again, successor.ID)
	}
}

// TestClusterLookupDeadNodeSaysNotFound: polling a job whose node died
// yields job_not_found (the resubmit-recovery code), not a hang or a
// transport error.
func TestClusterLookupDeadNodeSaysNotFound(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	raw := client.ClusterTrace(t, 2)
	info, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	owner := memberNode(nodes, cl.Route(raw)[0])
	owner.Abort()

	if _, err := cl.Job(ctx, info.ID); api.ErrorCode(err) != api.CodeJobNotFound {
		t.Fatalf("lookup on dead node = %v, want job_not_found", err)
	}
	if _, err := cl.Job(ctx, owner.ID+"-job-999999"); api.ErrorCode(err) != api.CodeJobNotFound {
		t.Fatalf("unknown id on dead node = %v, want job_not_found", err)
	}
}

// TestClusterAggregatesMetricsAndHealth: the cluster metrics document
// sums per-node counters; health lists every member with its node id and
// marks dead ones unhealthy.
func TestClusterAggregatesMetricsAndHealth(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	// Distinct traces spread across nodes; count total submissions.
	const submissions = 6
	for seed := 0; seed < submissions; seed++ {
		info, err := cl.Submit(ctx, api.SubmitRequest{Trace: client.ClusterTrace(t, 20+seed), Tenant: "acme"})
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

	nodes[2].Abort()
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
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	const submissions = 4
	done := 0
	for seed := 0; seed < submissions; seed++ {
		raw := client.ClusterTrace(t, 40+seed)
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

	nodes[0].Abort()
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

	nodes[1].Abort()
	nodes[2].Abort()
	if _, err := cl.Metrics(ctx); api.ErrorCode(err) != api.CodeNodeDown {
		t.Fatalf("metrics with all members down = %v, want node_down", err)
	}
}

// TestClusterHealthErrorIsStableCode: an unreachable member's health row
// carries a stable classification, never the transport error text — raw
// dial strings embed ephemeral ports and don't belong in a wire payload.
func TestClusterHealthErrorIsStableCode(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2")
	cl := clusterOf(t, nodes)
	deadURL := nodes[1].URL()
	nodes[1].Abort()

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
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	two := []string{nodes[0].URL(), nodes[1].URL()}
	cl, err := client.NewCluster(two, client.WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	added, removed := cl.UpdateMembers([]string{nodes[1].URL() + "/", nodes[0].URL()})
	if len(added)+len(removed) != 0 {
		t.Fatalf("same-set update = +%v -%v, want no-op", added, removed)
	}
	added, removed = cl.UpdateMembers(nil)
	if len(added)+len(removed) != 0 || len(cl.Members()) != 2 {
		t.Fatalf("empty update changed membership: +%v -%v members %v", added, removed, cl.Members())
	}

	three := append(append([]string(nil), two...), nodes[2].URL())
	added, removed = cl.UpdateMembers(three)
	if len(added) != 1 || added[0] != nodes[2].URL() || len(removed) != 0 {
		t.Fatalf("join diff = +%v -%v, want +[%s]", added, removed, nodes[2].URL())
	}
	if got := cl.Members(); len(got) != 3 {
		t.Fatalf("members after join = %v, want 3", got)
	}
	// The grown ring must actually route to the joined member for some
	// digest — otherwise the rebuild silently didn't happen.
	routed := false
	for seed := 0; seed < 32 && !routed; seed++ {
		routed = cl.Route(client.ClusterTrace(t, 60+seed))[0] == nodes[2].URL()
	}
	if !routed {
		t.Fatal("no digest routed to the joined member; ring not rebuilt")
	}

	added, removed = cl.UpdateMembers([]string{nodes[1].URL(), nodes[2].URL()})
	if len(removed) != 1 || removed[0] != nodes[0].URL() || len(added) != 0 {
		t.Fatalf("leave diff = +%v -%v, want -[%s]", added, removed, nodes[0].URL())
	}
	info, err := cl.Submit(context.Background(), api.SubmitRequest{Trace: client.ClusterTrace(t, 61)})
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
	nodes := fleettest.StartCluster(t, "n1")
	var got string
	front := httptest.NewServer(httpCapture(&got, nodes[0].URL()))
	defer front.Close()
	c := client.New(front.URL, client.WithRetry(1, time.Millisecond), client.WithForwardedBy("router-7"))
	defer c.Close()
	if _, err := c.Metrics(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != "router-7" {
		t.Errorf("forwarded header = %q, want router-7", got)
	}
}
