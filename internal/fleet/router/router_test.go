package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/fleettest"
	"ioagent/internal/fleet/node"
	"ioagent/internal/fleet/server"
	"ioagent/internal/iosim"
	"ioagent/internal/llm"
)

// startRouter fronts the nodes with a Router served over httptest and
// returns it with an SDK client pointed at the router — callers talk to
// the cluster exactly as they would to one daemon — plus the router's
// base URL for raw HTTP assertions.
func startRouter(t *testing.T, nodes []*node.Node) (*Router, *client.Client, string) {
	t.Helper()
	return startRouterCfg(t, fleettest.URLs(nodes), "", 0)
}

func routerTrace(t testing.TB, seed int) []byte {
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

// gateLLM holds every model call until open, pinning jobs in the running
// state.
type gateLLM struct {
	inner llm.Client
	ch    chan struct{}
	once  sync.Once
}

func (g *gateLLM) open() { g.once.Do(func() { close(g.ch) }) }

func (g *gateLLM) Complete(req llm.Request) (llm.Response, error) {
	<-g.ch
	return g.inner.Complete(req)
}

// rawGet fetches url with the given Accept header (empty: the JSON
// default) and returns the status, the Content-Length header and the body.
func rawGet(t *testing.T, url, accept string) (int, string, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Length"), body
}

// TestRouterRelaysOwnerBytes: the single-owner JSON reads — a job and its
// diagnosis — and the buffered submit reply are the owning node's bytes,
// served with their length; the text diagnosis and the lookup failures
// (a running job, an unknown node prefix) keep their codes and statuses.
func TestRouterRelaysOwnerBytes(t *testing.T) {
	g := &gateLLM{inner: llm.NewSim(), ch: make(chan struct{})}
	var nodes []*node.Node
	for _, id := range []string{"n1", "n2"} {
		nodes = append(nodes, fleettest.Start(t, node.Config{LLM: g, Fleet: fleet.Config{NodeID: id}}))
	}
	t.Cleanup(g.open) // runs before the nodes drain
	rt, c, base := startRouter(t, nodes)
	ctx := context.Background()

	raw := routerTrace(t, 90)
	owner := nodeByURL(nodes, rt.Route(raw)[0])
	info, err := c.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	diagPath := "/v1/jobs/" + info.ID + "/diagnosis"
	if _, err := c.Diagnosis(ctx, info.ID); api.ErrorCode(err) != api.CodeJobNotDone {
		t.Fatalf("running job's diagnosis = %v, want job_not_done", err)
	}
	if status, _, _ := rawGet(t, base+diagPath, ""); status != http.StatusConflict {
		t.Errorf("running job's diagnosis status = %d, want 409", status)
	}
	g.open()
	if _, err := c.WaitDiagnosis(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/v1/jobs/" + info.ID, diagPath} {
		status, length, via := rawGet(t, base+path, "")
		_, _, direct := rawGet(t, owner.URL()+path, "")
		if status != http.StatusOK || !bytes.Equal(via, direct) {
			t.Errorf("GET %s via router = %d %q, owner sent %q", path, status, via, direct)
		}
		if length != fmt.Sprint(len(via)) {
			t.Errorf("GET %s Content-Length = %q, body is %d bytes", path, length, len(via))
		}
	}
	status, _, text := rawGet(t, base+diagPath, "text/plain")
	_, _, directText := rawGet(t, owner.URL()+diagPath, "text/plain")
	if status != http.StatusOK || !bytes.Equal(text, directText) || json.Valid(text) {
		t.Errorf("text diagnosis via router = %d %q, owner sent %q", status, text, directText)
	}

	// A resubmission is a cache hit, terminal on acceptance: the router's
	// 202 body is the owner's own submit reply, which is its snapshot of
	// the new job plus the diagnosis the job was answered with. That holds
	// for every submission endpoint: buffered, streamed with a digest
	// header, streamed and spooled, and an upload's complete.
	checkReply := func(what string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var hit api.JobInfo
		if err := json.Unmarshal(reply, &hit); err != nil || resp.StatusCode != http.StatusAccepted || !hit.CacheHit {
			t.Fatalf("%s via router = %d %q (%v), want a 202 cache hit", what, resp.StatusCode, reply, err)
		}
		_, _, snapshot := rawGet(t, owner.URL()+"/v1/jobs/"+hit.ID, "")
		_, _, hitDiag := rawGet(t, owner.URL()+"/v1/jobs/"+hit.ID+"/diagnosis", "")
		var ownerReply api.JobInfo
		var d api.Diagnosis
		if err := errors.Join(json.Unmarshal(snapshot, &ownerReply), json.Unmarshal(hitDiag, &d)); err != nil {
			t.Fatal(err)
		}
		ownerReply.Text = d.Text
		want, err := json.Marshal(ownerReply)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(reply, want) {
			t.Errorf("%s reply via router = %q, owner's submit reply is %q", what, reply, want)
		}
		if bytes.Contains(snapshot, []byte(`"text"`)) {
			t.Errorf("owner's job snapshot carries the diagnosis: %q", snapshot)
		}
	}
	resp, err := http.Post(base+"/v1/jobs", "application/octet-stream", bytes.NewReader(raw))
	checkReply("buffered submit", resp, err)

	log, err := darshan.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	digest, err := darshan.ContentDigest(log)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/jobs/stream", bytes.NewReader(raw))
	req.Header.Set(api.DigestHeader, digest)
	resp, err = http.DefaultClient.Do(req)
	checkReply("stream with digest header", resp, err)
	// No digest and a body of unknown length: the router spools it.
	resp, err = http.Post(base+"/v1/jobs/stream", "application/octet-stream", io.MultiReader(bytes.NewReader(raw)))
	checkReply("spooled stream", resp, err)

	up, err := c.UploadOpen(ctx, client.StreamOpts{Digest: digest})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadAppend(ctx, up.ID, 0, raw); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/uploads/"+up.ID+"/complete", "", nil)
	checkReply("upload complete", resp, err)

	status, _, body := rawGet(t, base+"/v1/jobs/zz-job-000001", "")
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || status != http.StatusNotFound || e.Code != api.CodeJobNotFound {
		t.Errorf("unknown node prefix = %d %q, want 404 job_not_found", status, body)
	}

	// An owner whose replies carry a field this router's api.JobInfo does
	// not know: a relay that decoded and encoded them again would drop
	// it, and one that served a reply buffer after releasing it could
	// serve another reply's bytes. Every submission shape relays the
	// owner's reply byte for byte.
	owner2 := fakeOwner(t)
	_, _, base2 := startRouterCfg(t, []string{owner2.URL}, "", 0)
	for _, shape := range []struct {
		name, path string
		header     string
		body       io.Reader
	}{
		{"buffered submit", "/v1/jobs", "", bytes.NewReader(raw)},
		{"stream with digest header", "/v1/jobs/stream", digest, bytes.NewReader(raw)},
		{"spooled stream", "/v1/jobs/stream", "", io.MultiReader(bytes.NewReader(raw))},
	} {
		req, _ := http.NewRequest(http.MethodPost, base2+shape.path, shape.body)
		if shape.header != "" {
			req.Header.Set(api.DigestHeader, shape.header)
		}
		checkFakeReply(t, shape.name, owner2.reply(shape.path))(http.DefaultClient.Do(req))
	}
	req, _ = http.NewRequest(http.MethodPost, base2+"/v1/uploads", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("open upload via router = %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
	req, _ = http.NewRequest(http.MethodPatch, base2+"/v1/uploads/fk-up-000001", bytes.NewReader(raw))
	req.Header.Set(api.UploadOffsetHeader, "0")
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("append upload via router = %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
	checkFakeReply(t, "upload complete", owner2.reply("/v1/uploads/{id}/complete"))(
		http.Post(base2+"/v1/uploads/fk-up-000001/complete", "", nil))
}

// fakeOwnerServer is a member that accepts every submission shape with a
// fixed reply per endpoint, each carrying a field api.JobInfo does not
// have.
type fakeOwnerServer struct {
	*httptest.Server
	replies map[string][]byte
}

func (f *fakeOwnerServer) reply(path string) []byte { return f.replies[path] }

func fakeOwner(t *testing.T) *fakeOwnerServer {
	t.Helper()
	f := &fakeOwnerServer{replies: map[string][]byte{}}
	for i, path := range []string{"/v1/jobs", "/v1/jobs/stream", "/v1/uploads/{id}/complete"} {
		f.replies[path] = fmt.Appendf(nil, `{"id":"fk-job-%06d","status":"done","cache_hit":true,"text":"diagnosis %d","zz_future":{"kept":[%d,"x"]}}`+"\n", i+1, i+1, i+1)
	}
	mux := http.NewServeMux()
	submit := func(path string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			server.WriteRawJSON(w, http.StatusAccepted, f.replies[path])
		}
	}
	mux.HandleFunc("POST /v1/jobs", submit("/v1/jobs"))
	mux.HandleFunc("POST /v1/jobs/stream", submit("/v1/jobs/stream"))
	mux.HandleFunc("POST /v1/uploads/{id}/complete", submit("/v1/uploads/{id}/complete"))
	mux.HandleFunc("POST /v1/uploads", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusCreated, api.UploadInfo{ID: "fk-up-000001", Lane: api.LaneInteractive})
	})
	mux.HandleFunc("PATCH /v1/uploads/{id}", func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		server.WriteJSON(w, http.StatusOK, api.UploadInfo{ID: r.PathValue("id"), Offset: n, Lane: api.LaneInteractive})
	})
	f.Server = httptest.NewServer(server.WithVersion("fk", mux.ServeHTTP))
	t.Cleanup(f.Close)
	return f
}

// checkFakeReply asserts that a submission via the router was answered
// 202 with want, the owner's reply, byte for byte.
func checkFakeReply(t *testing.T, what string, want []byte) func(*http.Response, error) {
	return func(resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted || !bytes.Equal(got, want) {
			t.Errorf("%s via router = %d %q (%v), the owner sent %q", what, resp.StatusCode, got, err, want)
		}
	}
}

// TestRouterWaitDiagnosisOnHit: waiting on a cache hit through the router
// costs the owning node no request: the submit reply the router relays
// carries the diagnosis, and the SDK answers the wait from it.
func TestRouterWaitDiagnosisOnHit(t *testing.T) {
	daemon, err := url.Parse(fleettest.StartCluster(t, "n1")[0].URL())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(daemon)
	var (
		mu     sync.Mutex
		served []string // method and path of each request reaching the node
	)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served = append(served, r.Method+" "+r.URL.Path)
		mu.Unlock()
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	_, c, _ := startRouterCfg(t, []string{front.URL}, "", 0)
	ctx := context.Background()

	raw := routerTrace(t, 92)
	if _, err := c.SubmitAndWait(ctx, api.SubmitRequest{Trace: raw}); err != nil {
		t.Fatal(err)
	}
	hit, err := c.Submit(ctx, api.SubmitRequest{Trace: raw})
	if err != nil || !hit.CacheHit {
		t.Fatalf("resubmit = %+v, %v; want a cache hit", hit, err)
	}
	mu.Lock()
	served = nil
	mu.Unlock()
	d, err := c.WaitDiagnosis(ctx, hit.ID)
	if err != nil || !d.CacheHit || d.Text == "" {
		t.Fatalf("wait on the hit = %+v, %v", d, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) != 0 {
		t.Errorf("node served %q for the wait, want nothing", served)
	}
}

// BenchmarkRouterJobRelay reads a finished job, its diagnosis, and waits
// for that diagnosis through the router with the SDK: client → router →
// one node and back. The submit case resubmits the finished trace, an
// exact hit that the router places and forwards through
// Cluster.SubmitJSON; the hit case is what the exact-hit path costs end
// to end, a resubmission and the wait on it. Each read case resubmits
// once before its loop for a job the node still remembers, since the
// submit case's resubmissions push older jobs out of its bounded job
// history.
func BenchmarkRouterJobRelay(b *testing.B) {
	n := fleettest.Start(b, node.Config{Fleet: fleet.Config{NodeID: "n1"}})
	rt, err := New(Config{Members: []string{n.URL()}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	srv := httptest.NewServer(rt.Handler())
	b.Cleanup(srv.Close)
	c := client.New(srv.URL, client.WithPollInterval(time.Millisecond))
	b.Cleanup(c.Close)
	ctx := context.Background()
	raw := routerTrace(b, 91)
	if _, err := c.SubmitAndWait(ctx, api.SubmitRequest{Trace: raw}); err != nil {
		b.Fatal(err)
	}
	hit := func(b *testing.B) string {
		info, err := c.Submit(ctx, api.SubmitRequest{Trace: raw})
		if err != nil || !info.CacheHit {
			b.Fatalf("resubmit = %+v, %v; want a cache hit", info, err)
		}
		return info.ID
	}
	b.Run("submit", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			hit(b)
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := c.WaitDiagnosis(ctx, hit(b)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("job", func(b *testing.B) {
		id := hit(b)
		b.ReportAllocs()
		for b.Loop() {
			if _, err := c.Job(ctx, id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("diagnosis", func(b *testing.B) {
		id := hit(b)
		b.ReportAllocs()
		for b.Loop() {
			if _, err := c.Diagnosis(ctx, id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wait", func(b *testing.B) {
		// The first wait takes the diagnosis the resubmission carried;
		// the loop measures the waits that read it.
		id := hit(b)
		if _, err := c.WaitDiagnosis(ctx, id); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, err := c.WaitDiagnosis(ctx, id); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRouterMetricsPoolLatency: the router's /metrics percentiles are of
// the jobs of every node pooled, within one histogram bucket (at most 1/8
// wide) of the nearest-rank sample of their submit-to-done latencies.
func TestRouterMetricsPoolLatency(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2")
	_, c, _ := startRouter(t, nodes)
	ctx := context.Background()

	var lat []time.Duration
	owners := make(map[string]bool)
	for seed := 0; seed < 16; seed++ {
		info, err := c.Submit(ctx, api.SubmitRequest{Trace: routerTrace(t, 200+seed)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitDiagnosis(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		if info, err = c.Job(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		d := info.FinishedAt.Sub(info.SubmittedAt)
		if info.CacheHit {
			d = 0 // a hit records no latency
		}
		lat = append(lat, d)
		node, _, _ := strings.Cut(info.ID, "-job-")
		owners[node] = true
	}
	if len(owners) != 2 {
		t.Fatalf("jobs landed on %v, want both nodes", owners)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.LatencyBuckets.Count(); n != int64(len(lat)) {
		t.Fatalf("aggregate histogram holds %d jobs, want %d", n, len(lat))
	}
	slices.Sort(lat)
	for _, q := range []struct {
		p   float64
		got time.Duration
	}{{0.50, m.LatencyP50}, {0.95, m.LatencyP95}} {
		want := lat[int(math.Ceil(q.p*float64(len(lat))))-1]
		// One bucket either way, and a microsecond for the wall clock the
		// job record carries against the monotonic one the pool reads.
		if q.got < want*8/9-time.Microsecond || q.got > want*81/64+time.Microsecond {
			t.Errorf("p%v = %v, nearest-rank job latency %v (pooled over %v)", q.p*100, q.got, want, lat)
		}
	}
}
