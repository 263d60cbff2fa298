package server

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
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	fleetknowledge "ioagent/internal/fleet/knowledge"
	"ioagent/internal/fleet/store"
	"ioagent/internal/ioagent"
	"ioagent/internal/iosim"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
)

// testTrace builds a deterministic small-write trace; distinct seeds give
// distinct digests.
func testTrace(seed int) *darshan.Log {
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*17 + 9, NProcs: 4, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/e2e/job%02d.ex", seed),
	})
	f := sim.OpenShared(fmt.Sprintf("/scratch/e2e-%03d.dat", seed), iosim.POSIX, false, nil)
	for rank := 0; rank < 4; rank++ {
		for i := int64(0); i < 8; i++ {
			f.WriteAt(rank, (int64(rank)*8+i)*4096, 4096)
		}
	}
	f.Close()
	return sim.Finalize()
}

func encodeTraceBytes(t *testing.T, log *darshan.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.Encode(&buf, log); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testMux boots the HTTP surface over a small real pool.
func testMux(t *testing.T, maxBody int64) (*fleet.Pool, *httptest.Server) {
	t.Helper()
	pool := fleet.New(llm.NewSim(), fleet.Config{
		Workers: 2,
		Agent:   ioagent.Options{Index: knowledge.BuildIndex()},
	})
	t.Cleanup(pool.Close)
	srv := httptest.NewServer(NewMux(Config{Pool: pool, MaxBody: maxBody}))
	t.Cleanup(srv.Close)
	return pool, srv
}

// apiError decodes the error envelope from a non-2xx response.
func apiError(t *testing.T, resp *http.Response) api.Error {
	t.Helper()
	defer resp.Body.Close()
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not an api.Error envelope: %v", err)
	}
	return e
}

func TestMuxErrorTaxonomy(t *testing.T) {
	_, srv := testMux(t, 64<<20)

	// Unknown job: job_not_found on 404.
	resp, err := http.Get(srv.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	if e := apiError(t, resp); resp.StatusCode != http.StatusNotFound || e.Code != api.CodeJobNotFound {
		t.Errorf("unknown job = %s / %q, want 404 job_not_found", resp.Status, e.Code)
	}

	// Garbage body: bad_trace on 400, with no decoder internals leaked.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/octet-stream", strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	e := apiError(t, resp)
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadTrace {
		t.Errorf("garbage trace = %s / %q, want 400 bad_trace", resp.Status, e.Code)
	}
	if strings.Contains(e.Message, "%!") || strings.Contains(e.Message, ".go:") {
		t.Errorf("error message leaks internals: %q", e.Message)
	}

	// Unknown lane: bad_request on 400.
	resp, err = http.Post(srv.URL+"/v1/jobs?lane=bulk", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	if e := apiError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
		t.Errorf("unknown lane = %s / %q, want 400 bad_request", resp.Status, e.Code)
	}

	// Oversized tenant: bad_request, before the body is even considered.
	longTenant := strings.Repeat("t", api.MaxTenantLen+1)
	resp, err = http.Post(srv.URL+"/v1/jobs?tenant="+longTenant, "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	if e := apiError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
		t.Errorf("oversized tenant = %s / %q, want 400 bad_request", resp.Status, e.Code)
	}

	// Unmatched path: still an enveloped error, still version-stamped —
	// the mux's built-in plain-text 404 never reaches the wire.
	resp, err = http.Get(srv.URL + "/v2/nope")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(api.VersionHeader); got != api.Current.String() {
		t.Errorf("404 version header = %q, want %q", got, api.Current)
	}
	if e := apiError(t, resp); resp.StatusCode != http.StatusNotFound || e.Code != api.CodeNotFound {
		t.Errorf("unknown endpoint = %s / %q, want 404 not_found", resp.Status, e.Code)
	}
}

func TestMuxMaxBodyReturnsTraceTooLarge(t *testing.T) {
	_, srv := testMux(t, 512)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/octet-stream",
		bytes.NewReader(make([]byte, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	e := apiError(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Code != api.CodeTraceTooLarge {
		t.Fatalf("oversized body = %s / %q, want 413 trace_too_large", resp.Status, e.Code)
	}
	if !strings.Contains(e.Message, "512") {
		t.Errorf("message should name the configured limit, got %q", e.Message)
	}
}

func TestMuxVersionNegotiation(t *testing.T) {
	_, srv := testMux(t, 64<<20)

	// Every response advertises the server's version.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.VersionHeader); got != api.Current.String() {
		t.Errorf("advertised version = %q, want %q", got, api.Current)
	}

	// A compatible minor skew is accepted.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs", nil)
	req.Header.Set(api.VersionHeader, "1.9")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("minor skew = %s, want 200", resp.Status)
	}

	// An incompatible major is refused with the stable code.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs", nil)
	req.Header.Set(api.VersionHeader, "2.0")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if e := apiError(t, resp); e.Code != api.CodeUnsupportedVersion {
		t.Errorf("major skew code = %q, want unsupported_version", e.Code)
	}

	// A malformed header is a bad request, not a crash or a silent pass.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs", nil)
	req.Header.Set(api.VersionHeader, "latest")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if e := apiError(t, resp); e.Code != api.CodeBadRequest {
		t.Errorf("malformed version code = %q, want bad_request", e.Code)
	}
}

// TestMuxNodeIdentity: a -node-id daemon stamps every response with
// X-Fleet-Node and advertises the id in its metrics document.
func TestMuxNodeIdentity(t *testing.T) {
	pool := fleet.New(llm.NewSim(), fleet.Config{
		Workers: 1, NodeID: "n7",
		Agent: ioagent.Options{Index: knowledge.BuildIndex()},
	})
	t.Cleanup(pool.Close)
	srv := httptest.NewServer(NewMux(Config{Pool: pool, NodeID: "n7"}))
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.NodeHeader); got != "n7" {
		t.Errorf("node header = %q, want n7", got)
	}

	c := client.New(srv.URL)
	t.Cleanup(c.Close)
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Node != "n7" {
		t.Errorf("metrics node = %q, want n7", m.Node)
	}

	// Jobs carry the node prefix, the root of cluster-wide ID routing.
	info, err := c.Submit(context.Background(), api.SubmitRequest{Trace: encodeTraceBytes(t, testTrace(41))})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.ID, "n7-job-") {
		t.Errorf("job id = %q, want an n7-job- prefix", info.ID)
	}
}

// TestMuxClientRoundTrip drives the real mux through the SDK: submit on
// the batch lane under a tenant, wait the diagnosis, and read both
// metrics renderings.
func TestMuxClientRoundTrip(t *testing.T) {
	_, srv := testMux(t, 64<<20)
	c := client.New(srv.URL, client.WithPollInterval(10*time.Millisecond))
	t.Cleanup(c.Close)
	ctx := context.Background()

	raw := encodeTraceBytes(t, testTrace(11))
	info, err := c.Submit(ctx, api.SubmitRequest{Lane: api.LaneBatch, Tenant: "acme", Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if info.Lane != api.LaneBatch {
		t.Errorf("accepted lane = %q, want batch", info.Lane)
	}
	if info.Tenant != "acme" {
		t.Errorf("accepted tenant = %q, want acme", info.Tenant)
	}
	diag, err := c.WaitDiagnosis(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Text == "" || diag.JobID != info.ID || diag.Lane != api.LaneBatch {
		t.Errorf("diagnosis = %+v, want text and matching job/lane", diag)
	}

	// A duplicate submission is answered by the digest, not re-run — even
	// from another tenant (the cache is content-addressed, not
	// tenant-scoped).
	dup, err := c.Submit(ctx, api.SubmitRequest{Lane: api.LaneInteractive, Tenant: "globex", Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.CacheHit {
		t.Errorf("duplicate submit = %+v, want a cache hit (idempotent resubmit)", dup)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted < 2 || len(m.Models) == 0 {
		t.Errorf("metrics = %+v, want submissions and per-model counters", m)
	}
	for model, ms := range m.Models {
		if ms.Calls <= 0 || ms.PromptTokens <= 0 {
			t.Errorf("model %s counters = %+v, want nonzero calls and tokens", model, ms)
		}
	}
	if m.Tenants["acme"] != 1 || m.Tenants["globex"] != 1 {
		t.Errorf("tenant counters = %v, want acme:1 globex:1", m.Tenants)
	}
	if m.OwnedDigests < 1 {
		t.Errorf("owned digests = %d, want >= 1 after a cached diagnosis", m.OwnedDigests)
	}
}

func TestMuxPrometheusExposition(t *testing.T) {
	pool, srv := testMux(t, 64<<20)
	job, err := pool.SubmitPreparsed(context.Background(), fleet.Preparsed{Log: testTrace(12)}, fleet.SubmitOpts{Lane: fleet.LaneBatch, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE fleet_jobs_submitted_total counter",
		"fleet_jobs_submitted_total 1",
		`fleet_jobs_queued{lane="interactive"}`,
		`fleet_jobs_queued{lane="batch"}`,
		"fleet_jobs_done_total 1",
		"fleet_owned_digests 1",
		"fleet_breaker_open 0",
		"fleet_breaker_trips_total 0",
		`fleet_tenant_jobs_total{tenant="acme"} 1`,
		`fleet_model_tokens_total{model="` + llm.GPT4o + `",kind="prompt"}`,
		`fleet_model_cost_usd_total{model="` + llm.GPT4o + `"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Without the Accept header the JSON snapshot stays the default.
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var m api.Metrics
	if err := json.NewDecoder(resp2.Body).Decode(&m); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	if m.Done != 1 {
		t.Errorf("JSON metrics done = %d, want 1", m.Done)
	}

	// An explicitly excluded text/plain (q=0, RFC 9110) keeps JSON too.
	req3, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req3.Header.Set("Accept", "application/json, text/plain;q=0")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&m); err != nil {
		t.Errorf("text/plain;q=0 must keep the JSON default: %v", err)
	}
}

// TestMuxSemanticReuseProvenance pins the 1.3 wire surface: a
// near-duplicate submission served by the similarity cache reports
// similarity_hit with the source trace's digest on both the job record
// and the diagnosis document, and the exposition carries the semcache
// and tier series.
func TestMuxSemanticReuseProvenance(t *testing.T) {
	pool := fleet.New(llm.NewSim(), fleet.Config{
		Workers:  2,
		Agent:    ioagent.Options{Index: knowledge.BuildIndex()},
		SemCache: true,
		// The unit gate threshold: mechanics, not calibration (the bench
		// calibrates the default).
		GateThreshold: 0.5,
		TierModels:    []string{llm.GPT4oMini, llm.GPT4o},
	})
	t.Cleanup(pool.Close)
	srv := httptest.NewServer(NewMux(Config{Pool: pool, MaxBody: 64 << 20}))
	t.Cleanup(srv.Close)

	base := testTrace(21)
	j1, err := pool.Submit(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(); err != nil {
		t.Fatal(err)
	}

	// The near-duplicate: the text rendering plus one extra metadata
	// line — a new content digest, an identical I/O profile.
	text, err := darshan.TextString(base)
	if err != nil {
		t.Fatal(err)
	}
	dup := []byte(text + "# metadata: run_variant = rerun\n")
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(dup))
	if err != nil {
		t.Fatal(err)
	}
	var info api.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	c := client.New(srv.URL)
	defer c.Close()
	diag, err := c.WaitDiagnosis(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.SimilarityHit {
		t.Fatalf("near-duplicate was not a similarity hit: %+v", diag)
	}
	if diag.CacheHit {
		t.Error("similarity hit must not also claim an exact cache hit")
	}
	if diag.SourceDigest != j1.Digest() {
		t.Errorf("diagnosis source digest = %.12s, want the base job's %.12s", diag.SourceDigest, j1.Digest())
	}
	if diag.Confidence < 0.5 {
		t.Errorf("stamped confidence %.3f below the gate threshold", diag.Confidence)
	}
	// The job record carries the same provenance.
	jresp, err := http.Get(srv.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var jinfo api.JobInfo
	if err := json.NewDecoder(jresp.Body).Decode(&jinfo); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if !jinfo.SimilarityHit || jinfo.SourceDigest != j1.Digest() {
		t.Errorf("job record provenance = %+v, want similarity hit from %.12s", jinfo, j1.Digest())
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"fleet_semcache_hits_total 1",
		"fleet_semcache_entries 1",
		"# TYPE fleet_semcache_gate_rejects_total counter",
		`fleet_tier_jobs_total{model="` + llm.GPT4oMini + `"} 1`,
		`fleet_tier_cost_usd_total{model="` + llm.GPT4oMini + `"}`,
		"fleet_tier_escalations_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMuxDoesNotLeakFailureDetail pins the satellite requirement: a job
// that failed with an internal error chain surfaces on the wire only as
// the stable diagnosis_failed code.
func TestMuxDoesNotLeakFailureDetail(t *testing.T) {
	pool := fleet.New(&alwaysFail{}, fleet.Config{
		Workers: 1, MaxAttempts: 1,
		Agent: ioagent.Options{Index: knowledge.BuildIndex()},
	})
	t.Cleanup(pool.Close)
	srv := httptest.NewServer(NewMux(Config{Pool: pool}))
	t.Cleanup(srv.Close)

	job, err := pool.Submit(testTrace(13))
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()

	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID())
	if err != nil {
		t.Fatal(err)
	}
	var info api.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Status != api.StatusFailed || info.Error != string(api.CodeDiagnosisFailed) {
		t.Errorf("failed job on the wire = %+v, want the bare diagnosis_failed code", info)
	}
	if strings.Contains(info.Error, "/secret/") {
		t.Errorf("wire error leaks internal detail: %q", info.Error)
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + job.ID() + "/diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	e := apiError(t, resp)
	if resp.StatusCode != http.StatusBadGateway || e.Code != api.CodeDiagnosisFailed {
		t.Errorf("failed diagnosis = %s / %q, want 502 diagnosis_failed", resp.Status, e.Code)
	}
	if strings.Contains(e.Message, "/secret/") {
		t.Errorf("diagnosis error leaks internal detail: %q", e.Message)
	}
}

// TestMuxDiagnosisFailedCountsAttempts: the diagnosis of a failed job is
// a 502 diagnosis_failed envelope that carries the job's attempt count,
// and the SDK's WaitDiagnosis hands that envelope back as it is, after
// one request.
func TestMuxDiagnosisFailedCountsAttempts(t *testing.T) {
	pool := fleet.New(&alwaysDown{}, fleet.Config{
		Workers: 1, MaxAttempts: 3, RetryDelay: time.Nanosecond,
		Agent: ioagent.Options{Index: knowledge.BuildIndex()},
	})
	t.Cleanup(pool.Close)
	var requests atomic.Int64
	mux := NewMux(Config{Pool: pool})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	job, err := pool.Submit(testTrace(14))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err == nil {
		t.Fatal("job against a dead backend should fail")
	}
	if got := job.Info().Attempts; got != 3 {
		t.Fatalf("failed job made %d attempts, want MaxAttempts 3", got)
	}
	want := fmt.Sprintf("job %s failed permanently after 3 attempts", job.ID())

	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID() + "/diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	e := apiError(t, resp)
	if resp.StatusCode != http.StatusBadGateway || e.Code != api.CodeDiagnosisFailed || e.Message != want {
		t.Errorf("failed diagnosis = %s %+v, want 502 diagnosis_failed %q", resp.Status, e, want)
	}

	requests.Store(0)
	c := client.New(srv.URL)
	t.Cleanup(c.Close)
	_, err = c.WaitDiagnosis(context.Background(), job.ID())
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeDiagnosisFailed || ae.Message != want {
		t.Errorf("WaitDiagnosis on a failed job = %v, want diagnosis_failed %q", err, want)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("WaitDiagnosis on a failed job sent %d requests, want 1", n)
	}
}

// TestMuxBreakerOpenRefusesSubmissions: once the pool's circuit breaker
// trips, POST /v1/jobs answers a retryable 503 breaker_open instead of
// accepting jobs doomed to fail — the signal routers use to fail this
// node's shard over to a ring successor.
func TestMuxBreakerOpenRefusesSubmissions(t *testing.T) {
	pool := fleet.New(&alwaysDown{}, fleet.Config{
		Workers: 1, MaxAttempts: 1, RetryDelay: time.Nanosecond,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
		Agent: ioagent.Options{Index: knowledge.BuildIndex()},
	})
	t.Cleanup(pool.Close)
	srv := httptest.NewServer(NewMux(Config{Pool: pool}))
	t.Cleanup(srv.Close)

	// Trip the breaker with two transiently failing jobs.
	for seed := 30; seed < 32; seed++ {
		job, err := pool.Submit(testTrace(seed))
		if err != nil {
			t.Fatal(err)
		}
		job.Wait()
	}

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/octet-stream",
		bytes.NewReader(encodeTraceBytes(t, testTrace(33))))
	if err != nil {
		t.Fatal(err)
	}
	e := apiError(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != api.CodeBreakerOpen {
		t.Fatalf("submit with open breaker = %s / %q, want 503 breaker_open", resp.Status, e.Code)
	}
	if !e.Code.Retryable() {
		t.Error("breaker_open must be retryable so routers fail over")
	}

	// Monitoring still sees the raw open state.
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var m api.Metrics
	if err := json.NewDecoder(resp2.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !m.BreakerOpen || m.BreakerTrips != 1 {
		t.Errorf("metrics breaker open=%v trips=%d, want open with 1 trip", m.BreakerOpen, m.BreakerTrips)
	}
}

// alwaysDown fails transiently on every call — a dead backend.
type alwaysDown struct{}

func (alwaysDown) Complete(llm.Request) (llm.Response, error) {
	return llm.Response{}, llm.Transient(fmt.Errorf("backend down"))
}

// alwaysFail emits a permanent error that embeds the kind of path detail
// the old surface used to echo to clients.
type alwaysFail struct{}

func (alwaysFail) Complete(llm.Request) (llm.Response, error) {
	return llm.Response{}, &pathError{}
}

type pathError struct{}

func (*pathError) Error() string { return "open /secret/state/journal.wal: permission denied" }

// TestMuxDrainRejectsAndJournals pins the drain behavior deterministically:
// once draining flips, POST /v1/jobs answers 503 and the refusal lands in
// the journal, while read endpoints keep serving.
func TestMuxDrainRejectsAndJournals(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pool := fleet.New(llm.NewSim(), fleet.Config{
		Workers: 1,
		Agent:   ioagent.Options{Index: knowledge.BuildIndex()},
	})
	defer pool.Close()
	var draining atomic.Bool
	srv := httptest.NewServer(NewMux(Config{Pool: pool, Store: st, Draining: &draining}))
	defer srv.Close()

	raw := encodeTraceBytes(t, testTrace(3))

	// Healthy: accepted.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-drain submit = %s, want 202", resp.Status)
	}

	// Draining: refused with 503 and journaled.
	draining.Store(true)
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain submit = %s, want 503", resp.Status)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("drain error body = %s, want a draining explanation", body)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), `"op":"reject"`) || !strings.Contains(string(journal), "draining") {
		t.Errorf("journal should record the refusal, got %q", journal)
	}

	// Reads still work mid-drain.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics during drain = %s, want 200", resp.Status)
	}
}

// TestMuxKnowledgeEndpoints pins the 1.4 knowledge surface: disabled nodes
// answer knowledge_disabled, enabled nodes serve status, staged upserts,
// atomic swaps (including the nothing_staged refusal), the search probe,
// and the fleet_knowledge_* exposition series.
func TestMuxKnowledgeEndpoints(t *testing.T) {
	// A daemon without a plane: stable 404, not a bare mux miss.
	_, bare := testMux(t, 64<<20)
	resp, err := http.Get(bare.URL + "/v1/knowledge")
	if err != nil {
		t.Fatal(err)
	}
	if e := apiError(t, resp); resp.StatusCode != http.StatusNotFound || e.Code != api.CodeKnowledgeDisabled {
		t.Fatalf("knowledge on a bare node = %s / %q, want 404 knowledge_disabled", resp.Status, e.Code)
	}

	plane := fleetknowledge.New(fleetknowledge.Config{})
	pool := fleet.New(llm.NewSim(), fleet.Config{
		Workers:   1,
		Agent:     ioagent.Options{Index: knowledge.BuildIndex()},
		Knowledge: plane,
	})
	t.Cleanup(pool.Close)
	srv := httptest.NewServer(NewMux(Config{Pool: pool, MaxBody: 64 << 20}))
	t.Cleanup(srv.Close)
	postJSON := func(path string, body any) *http.Response {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Status: the seed corpus is promoted as epoch 1.
	resp, err = http.Get(srv.URL + "/v1/knowledge")
	if err != nil {
		t.Fatal(err)
	}
	var ks api.KnowledgeStatus
	if err := json.NewDecoder(resp.Body).Decode(&ks); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ks.Epoch != 1 || ks.Docs == 0 || ks.OwnedDocs != ks.Docs {
		t.Fatalf("seed status = %+v, want epoch 1 with a fully owned corpus", ks)
	}

	// Swapping with nothing staged is a 409.
	resp = postJSON("/v1/knowledge/swap", struct{}{})
	if e := apiError(t, resp); resp.StatusCode != http.StatusConflict || e.Code != api.CodeNothingStaged {
		t.Fatalf("empty swap = %s / %q, want 409 nothing_staged", resp.Status, e.Code)
	}

	// An empty-key document is refused before anything is staged.
	resp = postJSON("/v1/knowledge/docs", api.KnowledgeUpsertRequest{
		Docs: []api.KnowledgeDoc{{Text: "anonymous"}},
	})
	if e := apiError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
		t.Fatalf("empty-key upsert = %s / %q, want 400 bad_request", resp.Status, e.Code)
	}

	// Stage a document; it must not serve until the swap.
	resp = postJSON("/v1/knowledge/docs", api.KnowledgeUpsertRequest{
		Docs: []api.KnowledgeDoc{{Key: "ops2030runbook", Title: "Runbook", Text: "Drain the burst buffer before maintenance windows to avoid checkpoint stalls."}},
	})
	if err := json.NewDecoder(resp.Body).Decode(&ks); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ks.StagedOps != 1 || ks.Epoch != 1 {
		t.Fatalf("post-upsert status = %+v, want 1 staged op on epoch 1", ks)
	}

	resp = postJSON("/v1/knowledge/search", api.KnowledgeSearchRequest{Query: "drain the burst buffer before maintenance"})
	var sr api.KnowledgeSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, h := range sr.Hits {
		if h.Key == "ops2030runbook" {
			t.Fatal("staged document visible to retrieval before the swap")
		}
	}

	// Swap promotes epoch 2 and the document becomes retrievable.
	resp = postJSON("/v1/knowledge/swap", struct{}{})
	var swap api.KnowledgeSwapResponse
	if err := json.NewDecoder(resp.Body).Decode(&swap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if swap.Epoch != 2 {
		t.Fatalf("swap epoch = %d, want 2", swap.Epoch)
	}
	resp = postJSON("/v1/knowledge/search", api.KnowledgeSearchRequest{Query: "drain the burst buffer before maintenance"})
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, h := range sr.Hits {
		found = found || h.Key == "ops2030runbook"
	}
	if !found || sr.Epoch != 2 {
		t.Fatalf("post-swap search (epoch %d, %d hits) did not surface the new document", sr.Epoch, len(sr.Hits))
	}

	// Both metrics renderings carry the plane.
	var m api.Metrics
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Knowledge == nil || m.Knowledge.Epoch != 2 || m.Knowledge.Queries < 2 {
		t.Fatalf("metrics knowledge = %+v, want epoch 2 with served queries", m.Knowledge)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"fleet_knowledge_epoch 2",
		"fleet_knowledge_staged_ops 0",
		`fleet_knowledge_index_queries_total{path="ann"}`,
		`fleet_knowledge_index_queries_total{path="exact"}`,
		"# TYPE fleet_knowledge_queries_total counter",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMuxSchedEndpoints drives the api 1.6 fairness surface end to end:
// status, runtime class assignment (journaled through the hook), clear,
// validation, and both metrics renderings of the sched block.
func TestMuxSchedEndpoints(t *testing.T) {
	pool := fleet.New(llm.NewSim(), fleet.Config{
		Workers: 2,
		Agent:   ioagent.Options{Index: knowledge.BuildIndex()},
		TenantClasses: map[string]string{
			"acme": "gold",
		},
	})
	t.Cleanup(pool.Close)
	var journaled []string
	srv := httptest.NewServer(NewMux(Config{Pool: pool, OnTenantClass: func(tenant, class string) error {
		journaled = append(journaled, tenant+"="+class)
		return nil
	}}))
	t.Cleanup(srv.Close)

	// Status: the built-in class ladder and the boot-time assignment.
	var st api.SchedStatus
	resp, err := http.Get(srv.URL + "/v1/sched")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.FIFO || st.Admission {
		t.Fatalf("status flags = %+v, want DRR without admission", st)
	}
	if st.Classes["gold"].Weight != 8 || st.Classes["gold"].MaxQueueAge != 2*time.Second {
		t.Fatalf("gold class = %+v", st.Classes["gold"])
	}
	if st.Assignments["acme"] != "gold" {
		t.Fatalf("assignments = %v, want acme=gold", st.Assignments)
	}

	post := func(body string) (*http.Response, error) {
		return http.Post(srv.URL+"/v1/sched/tenants", "application/json", strings.NewReader(body))
	}

	// Assign at runtime; the response is the updated status and the
	// change reaches the journal hook.
	resp, err = post(`{"tenant":"umbrella","class":"silver"}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Assignments["umbrella"] != "silver" {
		t.Fatalf("assignments after POST = %v", st.Assignments)
	}

	// Clear with the empty class. Decode into a fresh struct — decoding
	// into a populated map merges instead of replacing.
	resp, err = post(`{"tenant":"umbrella","class":""}`)
	if err != nil {
		t.Fatal(err)
	}
	var cleared api.SchedStatus
	if err := json.NewDecoder(resp.Body).Decode(&cleared); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := cleared.Assignments["umbrella"]; ok {
		t.Fatalf("umbrella still assigned after clear: %v", cleared.Assignments)
	}
	if len(journaled) != 2 || journaled[0] != "umbrella=silver" || journaled[1] != "umbrella=" {
		t.Fatalf("journal hook saw %v", journaled)
	}

	// Validation: unknown class and missing tenant are bad_request.
	for _, body := range []string{`{"tenant":"x","class":"platinum"}`, `{"class":"gold"}`} {
		resp, err := post(body)
		if err != nil {
			t.Fatal(err)
		}
		if e := apiError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
			t.Errorf("POST %s = %s / %q, want 400 bad_request", body, resp.Status, e.Code)
		}
	}

	// A tenant-attributed submission surfaces in both metrics renderings.
	trace := encodeTraceBytes(t, testTrace(71))
	resp, err = http.Post(srv.URL+"/v1/jobs?tenant=acme", "application/octet-stream", bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %s", resp.Status)
	}
	pool.Wait()

	var m api.Metrics
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Sched == nil || m.Sched.Dequeues < 1 {
		t.Fatalf("metrics sched block = %+v, want dequeues", m.Sched)
	}
	if ten := m.Sched.Tenants["acme"]; ten.Class != "gold" || ten.Weight != 8 || ten.Dequeues < 1 {
		t.Fatalf("acme sched tenant = %+v", m.Sched.Tenants["acme"])
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"fleet_sched_fifo 0",
		"fleet_sched_dequeues_total",
		`fleet_sched_tenant_weight{tenant="acme"} 8`,
		`fleet_sched_tenant_dequeues_total{tenant="acme"}`,
		"# TYPE fleet_sched_tenant_queue_age_p50_seconds gauge",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestWriteJSON: a reply is one compact, newline-terminated document whose
// Content-Length matches it, and a value that cannot be encoded is served
// as a 500 internal envelope — not as the promised status with an empty
// body.
func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusAccepted, api.JobInfo{ID: "n1-job-000001", Status: api.StatusDone})
	body := rec.Body.String()
	if rec.Code != http.StatusAccepted || strings.Count(body, "\n") != 1 || !strings.HasSuffix(body, "}\n") ||
		strings.Contains(body, ": ") || rec.Header().Get("Content-Length") != fmt.Sprint(len(body)) {
		t.Errorf("reply = %d %q (Content-Length %q), want a compact 202 document with its length",
			rec.Code, body, rec.Header().Get("Content-Length"))
	}

	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, api.Diagnosis{Confidence: math.NaN()})
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError || e.Code != api.CodeInternal {
		t.Errorf("unencodable value = %d %q (%v), want 500 internal", rec.Code, rec.Body.String(), err)
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("error envelope Content-Length = %q, body is %d bytes", got, rec.Body.Len())
	}
}

// discardWriter is a ResponseWriter that keeps nothing but its header map.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkWriteJSON encodes the two documents of the exact-hit path: the
// job snapshot a submit or poll returns and a finished diagnosis.
func BenchmarkWriteJSON(b *testing.B) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	docs := []struct {
		name string
		v    any
	}{
		{"job", api.JobInfo{ID: "n1-job-000042", Digest: strings.Repeat("ab", 32), Status: api.StatusDone,
			Lane: api.LaneBatch, Tenant: "acme", CacheHit: true, Attempts: 1,
			SubmittedAt: now, StartedAt: now, FinishedAt: now}},
		{"diagnosis", api.Diagnosis{JobID: "n1-job-000042", Digest: strings.Repeat("ab", 32), Lane: api.LaneBatch,
			CacheHit: true, Text: strings.Repeat("Small writes dominate: 94% of POSIX writes are under 1 KiB.\n", 40)}},
	}
	for _, doc := range docs {
		b.Run(doc.name, func(b *testing.B) {
			w := discardWriter{h: http.Header{}}
			b.ReportAllocs()
			for b.Loop() {
				WriteJSON(w, http.StatusOK, doc.v)
			}
		})
	}
}
