package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/dxt"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/fleettest"
	"ioagent/internal/fleet/node"
	"ioagent/internal/iosim"
)

// bigTrace builds a trace whose TEXT rendering is multi-megabyte, so
// 64KB chunking produces a long stream.
func bigTrace(t *testing.T, seed, files int) *darshan.Log {
	t.Helper()
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*23 + 3, NProcs: 4, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/router/big%02d.ex", seed),
	})
	for fi := 0; fi < files; fi++ {
		f := sim.OpenShared(fmt.Sprintf("/scratch/big-%02d-%04d.dat", seed, fi), iosim.POSIX, false, nil)
		for i := int64(0); i < 4; i++ {
			f.WriteAt(int(i)%4, i*4096, 4096)
		}
		f.Close()
	}
	return sim.Finalize()
}

func textBytes(t *testing.T, log *darshan.Log) []byte {
	t.Helper()
	s, err := darshan.TextString(log)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(s)
}

// chunked64 yields the body in 64KB reads (the acceptance shape).
type chunked64 struct{ data []byte }

func (r *chunked64) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 64 << 10
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	n = copy(p[:n], r.data)
	r.data = r.data[n:]
	return n, nil
}

// startRouterCfg is startRouter over explicit member URLs and with an
// explicit spool configuration.
func startRouterCfg(t *testing.T, urls []string, spoolDir string, spoolMax int64) (*Router, *client.Client, string) {
	t.Helper()
	rt, err := New(Config{
		Members:  urls,
		SpoolDir: spoolDir,
		SpoolMax: spoolMax,
		ClientOptions: []client.Option{
			client.WithRetry(1, time.Millisecond), // fast failover in tests
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	c := client.New(srv.URL, client.WithPollInterval(5*time.Millisecond))
	t.Cleanup(c.Close)
	return rt, c, srv.URL
}

// ownerOf maps a canonical digest to the node id the ring assigns it.
func ownerOf(t *testing.T, nodes []*node.Node, digest string) string {
	t.Helper()
	cl, err := client.NewCluster(fleettest.URLs(nodes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	owner := cl.RouteDigest(digest)[0]
	return nodeByURL(nodes, owner).ID
}

// TestRouterStreamZeroSpoolByDigestHeader is the tentpole's e2e: a
// multi-MB trace streamed in 64KB chunks through the router, placed on
// the ring owner of its asserted digest, with the router provably never
// spooling — the spool dir is unwritable, so any spool attempt would
// fail the request.
func TestRouterStreamZeroSpoolByDigestHeader(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	noSpool := t.TempDir()
	if err := os.Chmod(noSpool, 0o500); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(noSpool, 0o700) })
	_, c, _ := startRouterCfg(t, fleettest.URLs(nodes), noSpool, 0)

	log := bigTrace(t, 1, 800)
	body := textBytes(t, log)
	if len(body) < 2<<20 {
		t.Fatalf("trace text is %d bytes; the scenario needs multi-MB", len(body))
	}
	digest, err := darshan.ContentDigest(log)
	if err != nil {
		t.Fatal(err)
	}
	wantNode := ownerOf(t, nodes, digest)

	ctx := context.Background()
	info, err := c.SubmitStream(ctx, &chunked64{data: body}, client.StreamOpts{Digest: digest})
	if err != nil {
		t.Fatalf("stream through router: %v", err)
	}
	if !strings.HasPrefix(info.ID, wantNode+"-") {
		t.Errorf("job %s did not land on digest owner %s", info.ID, wantNode)
	}
	if _, err := c.WaitDiagnosis(ctx, info.ID); err != nil {
		t.Fatalf("diagnosis through router: %v", err)
	}

	// The binary rendering of the same trace asserts the same digest,
	// reaches the same node, and is answered from its digest cache.
	var bin bytes.Buffer
	if err := darshan.Encode(&bin, log); err != nil {
		t.Fatal(err)
	}
	info2, err := c.SubmitStream(ctx, &chunked64{data: bin.Bytes()}, client.StreamOpts{Digest: digest})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info2.ID, wantNode+"-") {
		t.Errorf("binary rendering landed on %s, not owner %s", info2.ID, wantNode)
	}
	if !info2.CacheHit {
		t.Error("binary rendering was not a cache hit across renderings")
	}
}

// dxtTrace renders a small workload as DXT per-operation text and
// derives the counter log every ingest surface must decode it to.
func dxtTrace(t *testing.T, seed int) ([]byte, *darshan.Log) {
	t.Helper()
	sim := iosim.New(iosim.Config{Seed: int64(seed)*29 + 11, NProcs: 2, EnableDXT: true})
	f := sim.OpenShared(fmt.Sprintf("/scratch/rt-dxt-%03d.dat", seed), iosim.POSIX, false, nil)
	for i := int64(0); i < 6; i++ {
		f.WriteAt(int(i)%2, i*3000, 3000)
	}
	f.Close()
	sim.Finalize()
	tr := sim.DXT()
	return []byte(dxt.TextString(tr)), darshan.FromDXT(tr)
}

// TestRouterStreamSpoolsWithoutHeader: a stream that asserts nothing
// spools within its bound while the router's front door derives the
// canonical digest — for every text rendering — still reaches the owner,
// and cleans its spool up afterwards. Beyond the bound it refuses with
// trace_too_large.
func TestRouterStreamSpoolsWithoutHeader(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2")
	spool := t.TempDir()
	_, c, base := startRouterCfg(t, fleettest.URLs(nodes), spool, 1<<20)

	parserLog := routerTraceLog(t, 7)
	dxtBody, dxtLog := dxtTrace(t, 7)
	for _, tc := range []struct {
		name string
		body []byte
		log  *darshan.Log
	}{
		{"darshan-parser text", textBytes(t, parserLog), parserLog},
		{"DXT text", dxtBody, dxtLog},
	} {
		digest, err := darshan.ContentDigest(tc.log)
		if err != nil {
			t.Fatal(err)
		}
		wantNode := ownerOf(t, nodes, digest)

		resp, err := http.Post(base+"/v1/jobs/stream", "application/octet-stream", &chunked64{data: tc.body})
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: header-less stream: %s", tc.name, resp.Status)
		}
		if got := resp.Header.Get(api.DigestHeader); got != digest {
			t.Errorf("%s: router derived digest %q, want %q", tc.name, got, digest)
		}
		var info api.JobInfo
		decodeJSON(t, resp, &info)
		if !strings.HasPrefix(info.ID, wantNode+"-") {
			t.Errorf("%s: spooled stream landed on %s, not canonical owner %s", tc.name, info.ID, wantNode)
		}
	}

	// Spool cleaned up.
	entries, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("%d spool files left behind", len(entries))
	}

	// Over the bound: refused with trace_too_large and a hint to assert
	// the digest.
	big := textBytes(t, bigTrace(t, 2, 500))
	resp, err := http.Post(base+"/v1/jobs/stream", "application/octet-stream", &chunked64{data: big})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over-bound spool = %s, want 413", resp.Status)
	}
	if _, err := c.Metrics(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRouterStreamTrailerPlaces: a trailer claim places the stream
// exactly like a header claim. The router forwards the claim without
// judging it — proven by the owning daemon, not the router, being the one
// that meets a wrong claim and answers digest_mismatch.
func TestRouterStreamTrailerPlaces(t *testing.T) {
	daemon, err := url.Parse(fleettest.StartCluster(t, "n1")[0].URL())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(daemon)
	var (
		mu        sync.Mutex
		forwarded []string // X-Fleet-Digest of each stream reaching the daemon
	)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/stream" {
			mu.Lock()
			forwarded = append(forwarded, r.Header.Get(api.DigestHeader))
			mu.Unlock()
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	_, _, base := startRouterCfg(t, []string{front.URL}, t.TempDir(), 0)

	body, log := dxtTrace(t, 9)
	digest, err := darshan.ContentDigest(log)
	if err != nil {
		t.Fatal(err)
	}
	post := func(trailer string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs/stream", &chunked64{data: body})
		if err != nil {
			t.Fatal(err)
		}
		req.Trailer = http.Header{api.DigestHeader: {trailer}}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(digest)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trailer-claimed stream: %s", resp.Status)
	}
	if got := resp.Header.Get(api.DigestHeader); got != digest {
		t.Errorf("response digest %q, want the claim %q", got, digest)
	}
	resp.Body.Close()

	wrong := strings.Repeat("0", 64)
	resp = post(wrong)
	var e api.Error
	decodeJSON(t, resp, &e)
	if resp.StatusCode != http.StatusUnprocessableEntity || e.Code != api.CodeDigestMismatch {
		t.Errorf("wrong trailer = %s / %q, want 422 digest_mismatch", resp.Status, e.Code)
	}
	mu.Lock()
	got := slices.Clone(forwarded)
	mu.Unlock()
	if want := []string{digest, wrong}; !slices.Equal(got, want) {
		t.Errorf("daemon saw claims %v, want %v: the router must place by the trailer and leave verification to the owner", got, want)
	}

	// A trailer that is not a digest at all asserts nothing worth routing
	// by: the router parses the spool and refuses the claim itself.
	resp = post("nothex")
	decodeJSON(t, resp, &e)
	if e.Code != api.CodeDigestMismatch {
		t.Errorf("malformed trailer = %q, want digest_mismatch", e.Code)
	}
}

// TestOneTraceOneOwner: every rendering of one trace, through every
// door, yields one digest and lands on one owner — router, SDK and ring
// agree because they all ask the same front door. Each hop's memo only
// changes what that answer costs: a router whose memo the bytes have
// warmed, a router that never saw them and a cold SDK cluster name the
// same owner.
func TestOneTraceOneOwner(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	rt, c, base := startRouterCfg(t, fleettest.URLs(nodes), t.TempDir(), 0)
	coldRouter, _, _ := startRouter(t, nodes)
	coldSDK, err := client.NewCluster(fleettest.URLs(nodes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coldSDK.Close)
	ctx := context.Background()

	counterLog := routerTraceLog(t, 11)
	dxtBody, dxtLog := dxtTrace(t, 11)
	for _, tc := range []struct {
		name string
		body []byte
		log  *darshan.Log
	}{
		{"binary", routerTrace(t, 11), counterLog},
		{"darshan-parser text", textBytes(t, counterLog), counterLog},
		{"DXT text", dxtBody, dxtLog},
	} {
		digest, err := darshan.ContentDigest(tc.log)
		if err != nil {
			t.Fatal(err)
		}
		owner := ownerOf(t, nodes, digest)

		if key := client.RouteKey(tc.body); key != digest {
			t.Errorf("%s: RouteKey %s, want content digest %s", tc.name, key, digest)
		}
		if got := nodeByURL(nodes, rt.Route(tc.body)[0]).ID; got != owner {
			t.Errorf("%s: Cluster.Route owner %s, want %s", tc.name, got, owner)
		}

		doors := []struct {
			door   string
			submit func() (api.JobInfo, error)
		}{
			{"buffered", func() (api.JobInfo, error) {
				return c.Submit(ctx, api.SubmitRequest{Trace: tc.body})
			}},
			{"stream + header", func() (api.JobInfo, error) {
				return c.SubmitStream(ctx, &chunked64{data: tc.body}, client.StreamOpts{Digest: digest})
			}},
			// The SDK's single-pass tee announces the trailer; it delivers
			// one for the text renderings and none for binary.
			{"stream + trailer", func() (api.JobInfo, error) {
				return c.SubmitStream(ctx, &chunked64{data: tc.body}, client.StreamOpts{})
			}},
			{"stream, nothing asserted", func() (api.JobInfo, error) {
				resp, err := http.Post(base+"/v1/jobs/stream", "application/octet-stream", &chunked64{data: tc.body})
				if err != nil {
					return api.JobInfo{}, err
				}
				if resp.StatusCode != http.StatusAccepted {
					resp.Body.Close()
					return api.JobInfo{}, fmt.Errorf("status %s", resp.Status)
				}
				if got := resp.Header.Get(api.DigestHeader); got != digest {
					t.Errorf("%s: router answered digest %q, want %q", tc.name, got, digest)
				}
				var info api.JobInfo
				decodeJSON(t, resp, &info)
				return info, nil
			}},
			{"upload session", func() (api.JobInfo, error) {
				return c.SubmitChunked(ctx, bytes.NewReader(tc.body), 64<<10, client.StreamOpts{Digest: digest})
			}},
		}
		var jobDigest string
		for _, d := range doors {
			info, err := d.submit()
			if err != nil {
				t.Errorf("%s via %s: %v", tc.name, d.door, err)
				continue
			}
			if !strings.HasPrefix(info.ID, owner+"-") {
				t.Errorf("%s via %s: job %s is not on owner %s", tc.name, d.door, info.ID, owner)
			}
			if jobDigest == "" {
				jobDigest = info.Digest
			}
			if info.Digest != jobDigest {
				t.Errorf("%s via %s: job digest %s, want %s like every other door", tc.name, d.door, info.Digest, jobDigest)
			}
		}

		// rt keyed these bytes in Route above, so its buffered door routed
		// by a memo hit; the other two have never seen them.
		hitsBefore := rt.cluster.MemoStats().Hits
		if got := nodeByURL(nodes, rt.Route(tc.body)[0]).ID; got != owner {
			t.Errorf("%s: warm router owner %s, want %s", tc.name, got, owner)
		}
		if rt.cluster.MemoStats().Hits != hitsBefore+1 {
			t.Errorf("%s: the warm router's memo did not answer for bytes it had keyed", tc.name)
		}
		for who, route := range map[string]func([]byte) []string{"cold router": coldRouter.Route, "cold SDK cluster": coldSDK.Route} {
			if got := nodeByURL(nodes, route(tc.body)[0]).ID; got != owner {
				t.Errorf("%s: %s owner %s, want %s", tc.name, who, got, owner)
			}
		}
	}
	if st := coldSDK.MemoStats(); st.Hits != 0 || st.Misses != 3 {
		t.Errorf("cold SDK cluster memo %+v, want three first sights", st)
	}
}

// TestRouterUploadSessionPreparsesBeforeFinalChunk: resumable upload
// through the router — opened on the digest owner, appended in 64KB
// chunks, with incremental pre-parse progress visible while chunks are
// still outstanding, completing into a job on the owning node.
func TestRouterUploadSessionPreparsesBeforeFinalChunk(t *testing.T) {
	nodes := fleettest.StartCluster(t, "n1", "n2", "n3")
	_, c, _ := startRouterCfg(t, fleettest.URLs(nodes), t.TempDir(), 0)
	ctx := context.Background()

	log := bigTrace(t, 3, 400)
	body := textBytes(t, log)
	digest, err := darshan.ContentDigest(log)
	if err != nil {
		t.Fatal(err)
	}
	wantNode := ownerOf(t, nodes, digest)

	up, err := c.UploadOpen(ctx, client.StreamOpts{Lane: api.LaneBatch, Digest: digest})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(up.ID, wantNode+"-") {
		t.Errorf("session %s not on digest owner %s", up.ID, wantNode)
	}

	const chunk = 64 << 10
	var offset int64
	preparsedMidway := false
	for off := 0; off < len(body); off += chunk {
		end := off + chunk
		if end > len(body) {
			end = len(body)
		}
		info, err := c.UploadAppend(ctx, up.ID, offset, body[off:end])
		if err != nil {
			t.Fatal(err)
		}
		offset = info.Offset
		if end < len(body) {
			st, err := c.UploadStatus(ctx, up.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st.PreparsedLines > 0 && st.PreparsedModules > 0 {
				preparsedMidway = true
			}
		}
	}
	if !preparsedMidway {
		t.Error("pre-parsing had not started before the final chunk")
	}

	job, err := c.UploadComplete(ctx, up.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.ID, wantNode+"-") {
		t.Errorf("job %s not on owner %s", job.ID, wantNode)
	}
	if job.Lane != api.LaneBatch {
		t.Errorf("job lane %s, want batch", job.Lane)
	}
	if _, err := c.WaitDiagnosis(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRouterPropagatesClientCancelToHungNode is the regression test for
// the context-cancellation bugfix: when the inbound client hangs up, the
// router's outbound call to a hung node must be canceled promptly — the
// goroutine must not stay parked until the transport timeout.
func TestRouterPropagatesClientCancelToHungNode(t *testing.T) {
	nodeSawCancel := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, api.Current.String())
		if r.Method == http.MethodPost {
			// A wedged daemon: accepts the trace, then never answers.
			// (Reading the body first matters — it is what lets net/http
			// watch the connection and cancel r.Context() on disconnect,
			// exactly like a real iofleetd that read the trace and then
			// hung in the pool.)
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			close(nodeSawCancel)
			return
		}
		w.Write([]byte("{}"))
	}))
	t.Cleanup(hung.Close)

	rt, err := New(Config{
		Members:       []string{hung.URL},
		ClientOptions: []client.Option{client.WithRetry(1, time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader("trace"))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel() // the client hangs up mid-forward
	}()
	start := time.Now()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("canceled request reported success")
	}
	// The hung node's handler must observe the cancellation ~immediately,
	// proving the router plumbed the inbound context into the forward.
	select {
	case <-nodeSawCancel:
	case <-time.After(3 * time.Second):
		t.Fatal("hung node never saw the cancellation: router holds its goroutine past client disconnect")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancellation took %v to propagate", elapsed)
	}
}

// TestRouterPropagatesRetryAfter: a daemon's Retry-After hint on a
// retryable refusal must survive the router hop — it is what floors the
// SDK's adaptive backoff.
func TestRouterPropagatesRetryAfter(t *testing.T) {
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, api.Current.String())
		w.Header().Set(api.RetryAfterHeader, "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.Errorf(api.CodeQuotaExceeded, "tenant at quota"))
	}))
	t.Cleanup(daemon.Close)

	rt, err := New(Config{
		Members:       []string{daemon.URL},
		ClientOptions: []client.Option{client.WithRetry(1, time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("router response = %s, want 429", resp.Status)
	}
	if got := resp.Header.Get(api.RetryAfterHeader); got != "7" {
		t.Errorf("router %s = %q, want the daemon's hint %q", api.RetryAfterHeader, got, "7")
	}
}

// routerTraceLog is routerTrace's decoded form (the helpers in
// router_test.go return encoded bytes).
func routerTraceLog(t *testing.T, seed int) *darshan.Log {
	t.Helper()
	log, err := darshan.Decode(bytes.NewReader(routerTrace(t, seed)))
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
