package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/store"
	"ioagent/internal/ioagent"
	"ioagent/internal/iosim"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
)

// Identical bytes cost one hash per hop. The node's memo may change what
// a buffered resubmission costs and nothing a client can observe.

// postTrace submits body to the buffered endpoint, optionally asserting
// a digest, and returns the response with its body read.
func postTrace(t *testing.T, base string, body []byte, claim string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if claim != "" {
		req.Header.Set(api.DigestHeader, claim)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestBufferedResubmitAnswersLikeAColdNode: two surfaces over one pool —
// one whose memo the bytes have warmed, one that has never seen them —
// answer a resubmission with the same status, the same digest echo and
// the same JobInfo (job id and submit clock aside), in every rendering.
func TestBufferedResubmitAnswersLikeAColdNode(t *testing.T) {
	pool, warm := testMux(t, 64<<20)
	cold := httptest.NewServer(NewMux(Config{Pool: pool}))
	t.Cleanup(cold.Close)

	log := testTrace(21)
	cd, err := darshan.ContentDigest(log)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"binary": encodeTraceBytes(t, log),
		"text":   textTraceBytes(t, log),
	} {
		resp, _ := postTrace(t, warm.URL, body, "") // first sight: decoded, remembered
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: first submit = %s", name, resp.Status)
		}
		pool.Wait()

		var infos [2]api.JobInfo
		for i, srv := range []*httptest.Server{warm, cold} {
			resp, data := postTrace(t, srv.URL, body, "")
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s: resubmit via surface %d = %s", name, i, resp.Status)
			}
			if got := resp.Header.Get(api.DigestHeader); got != cd {
				t.Errorf("%s: surface %d echoed digest %q, want %q", name, i, got, cd)
			}
			if err := json.Unmarshal(data, &infos[i]); err != nil {
				t.Fatal(err)
			}
			if !infos[i].CacheHit || infos[i].Status != api.StatusDone {
				t.Errorf("%s: surface %d resubmit = %+v, want a done cache hit", name, i, infos[i])
			}
			infos[i].ID, infos[i].SubmittedAt, infos[i].FinishedAt = "", time.Time{}, time.Time{}
		}
		if infos[0] != infos[1] {
			t.Errorf("%s: warm surface answered %+v, cold surface %+v", name, infos[0], infos[1])
		}
	}
}

// TestMemoisedBytesStillVerifyAndRefuse: remembering a body's digest
// never weakens a check. A wrong asserted digest on memoised bytes is
// still digest_mismatch (and teaches the memo nothing), a right one is
// accepted, an over-limit body is trace_too_large however often it is
// sent, and a bad trace is refused identically on every resubmission.
func TestMemoisedBytesStillVerifyAndRefuse(t *testing.T) {
	pool, srv := testMux(t, 64<<10)
	log := testTrace(22)
	body := encodeTraceBytes(t, log)
	cd, err := darshan.ContentDigest(log)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postTrace(t, srv.URL, body, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %s", resp.Status)
	}
	pool.Wait()

	wrong := strings.Repeat("0", 64)
	for round := 1; round <= 2; round++ {
		resp, data := postTrace(t, srv.URL, body, wrong)
		var e api.Error
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || e.Code != api.CodeDigestMismatch {
			t.Errorf("round %d: wrong claim on memoised bytes = %s / %q, want 422 digest_mismatch", round, resp.Status, e.Code)
		}
		resp, _ = postTrace(t, srv.URL, body, cd)
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get(api.DigestHeader) != cd {
			t.Errorf("round %d: right claim = %s echoing %q, want 202 echoing %q", round, resp.Status, resp.Header.Get(api.DigestHeader), cd)
		}
	}

	var refusals [3]string
	bad := body[:len(body)/2]
	for i := range refusals {
		resp, data := postTrace(t, srv.URL, bad, "")
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), string(api.CodeBadTrace)) {
			t.Fatalf("bad trace, submission %d = %s %s, want 400 bad_trace", i+1, resp.Status, data)
		}
		refusals[i] = string(data)
	}
	if refusals[0] != refusals[1] || refusals[1] != refusals[2] {
		t.Errorf("a bad trace was refused differently across resubmissions: %q", refusals)
	}

	for i := 0; i < 2; i++ {
		resp, data := postTrace(t, srv.URL, make([]byte, 128<<10), "")
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(data), string(api.CodeTraceTooLarge)) {
			t.Errorf("over-limit body, submission %d = %s %s, want 413 trace_too_large", i+1, resp.Status, data)
		}
	}
}

// TestReadBody: the one bounded read sizes its buffer from the declared
// length, takes an undeclared (chunked) body all the same, reserves no
// more than the bound for a length that lies, and words its refusals per
// caller.
func TestReadBody(t *testing.T) {
	const maxBody = 1 << 20
	payload := bytes.Repeat([]byte("x"), 300<<10)
	read := func(body io.Reader, declared int64) ([]byte, *api.Error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
		return ReadBody(httptest.NewRecorder(), r, maxBody, declared, "upload chunk", "router")
	}

	got, apiErr := read(bytes.NewReader(payload), int64(len(payload)))
	if apiErr != nil || !bytes.Equal(got, payload) {
		t.Fatalf("declared body: %d bytes, err %v", len(got), apiErr)
	}
	if extra := cap(got) - len(payload); extra < 0 || extra > bytes.MinRead {
		t.Errorf("declared body landed in a buffer of %d for %d bytes: not sized from Content-Length", cap(got), len(payload))
	}
	if got, apiErr = read(&slowChunkReader{data: payload, chunk: 4096}, -1); apiErr != nil || !bytes.Equal(got, payload) {
		t.Errorf("undeclared body: %d bytes, err %v", len(got), apiErr)
	}
	if got, apiErr = read(bytes.NewReader(payload), 1<<40); apiErr != nil || !bytes.Equal(got, payload) || cap(got) > maxBody+bytes.MinRead {
		t.Errorf("lying Content-Length: %d bytes in a buffer of %d, err %v; want the body, within the bound", len(got), cap(got), apiErr)
	}

	_, apiErr = read(bytes.NewReader(make([]byte, maxBody+1)), maxBody+1)
	if apiErr == nil || apiErr.Code != api.CodeTraceTooLarge ||
		apiErr.Message != fmt.Sprintf("upload chunk exceeds the %d-byte limit (router -max-body)", maxBody) {
		t.Errorf("overrun = %+v, want trace_too_large naming the chunk, the limit and the router", apiErr)
	}
	_, apiErr = read(io.MultiReader(bytes.NewReader(payload), iotest.ErrReader(io.ErrUnexpectedEOF)), -1)
	if apiErr == nil || apiErr.Code != api.CodeBadRequest || apiErr.Message != "read chunk: request aborted" {
		t.Errorf("aborted read = %+v, want bad_request %q", apiErr, "read chunk: request aborted")
	}
}

// wideTrace is a trace with the given number of files: its encoding, and
// what decoding it allocates, grow with files.
func wideTrace(t *testing.T, files int) []byte {
	t.Helper()
	sim := iosim.New(iosim.Config{Seed: 77, NProcs: 4, UsesMPI: true, Exe: "/apps/e2e/wide.ex"})
	for fi := 0; fi < files; fi++ {
		f := sim.OpenShared(fmt.Sprintf("/scratch/wide-%04d.dat", fi), iosim.POSIX, false, nil)
		for i := int64(0); i < 4; i++ {
			f.WriteAt(int(i)%4, i*4096, 4096)
		}
		f.Close()
	}
	return encodeTraceBytes(t, sim.Finalize())
}

// TestResubmitAllocFence: ROADMAP item 3's fence, extended from
// decode→digest to the node's whole parse→digest→submit path. Resubmitting
// a diagnosed trace through the handler allocates a fixed number of
// objects however large the trace is — the body buffer is one of them —
// because the memo answers with a hash and the pool's exact hit never
// asks for the log.
func TestResubmitAllocFence(t *testing.T) {
	pool := fleet.New(llm.NewSim(), fleet.Config{
		Workers: 2,
		Agent:   ioagent.Options{Index: knowledge.BuildIndex()},
	})
	t.Cleanup(pool.Close)
	mux := NewMux(Config{Pool: pool})

	resubmit := func(body []byte) func() {
		return func() {
			r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, r)
			if w.Code != http.StatusAccepted {
				t.Fatalf("resubmit = %d %s", w.Code, w.Body)
			}
		}
	}
	var allocs [2]float64
	var decodeAllocs [2]float64
	for i, files := range []int{2, 400} {
		body := wideTrace(t, files)
		resubmit(body)() // first sight: decoded, diagnosed, remembered
		pool.Wait()
		allocs[i] = testing.AllocsPerRun(20, resubmit(body))
		decodeAllocs[i] = testing.AllocsPerRun(5, func() {
			if _, _, err := ingest.Decode(body); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%3d files, %7d wire bytes: %.0f allocs per resubmission (one cold decode: %.0f)", files, len(body), allocs[i], decodeAllocs[i])
	}
	if decodeAllocs[1] < 4*decodeAllocs[0] {
		t.Fatalf("the wide trace does not decode measurably heavier (%v): the fence would prove nothing", decodeAllocs)
	}
	if allocs[1] > allocs[0]+2 {
		t.Errorf("resubmission allocations grow with the trace: %.0f for the small one, %.0f for the wide one", allocs[0], allocs[1])
	}
	const limit = 80
	if allocs[1] > limit {
		t.Errorf("a resubmission allocates %.0f objects, fence is %d", allocs[1], limit)
	}
}

// TestMemoHitCacheMissRunsJournalsAndReplays: the node knows a body's
// digest (memo hit) but the result cache has dropped its diagnosis
// (CacheSize 1, two alternating traces). The job must run like any miss:
// decoded on demand, journaled with its trace, and replayable by the
// store after a crash.
func TestMemoHitCacheMissRunsJournalsAndReplays(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	open := make(chan struct{})
	close(open)
	backend := &gatedClient{inner: llm.NewSim(), gate: open} // swapped for a closed gate only while the pool is idle
	cfg := fleet.Config{
		Workers: 1, CacheSize: 1,
		Agent:      ioagent.Options{Index: knowledge.BuildIndex()},
		OnJobEvent: st.OnJobEvent, OnCacheInsert: st.CacheChanged, OnCacheEvict: st.CacheChanged,
	}
	pool := fleet.New(backend, cfg)
	srv := httptest.NewServer(NewMux(Config{Pool: pool, Store: st}))
	defer srv.Close()

	a, b := encodeTraceBytes(t, testTrace(31)), encodeTraceBytes(t, testTrace(32))
	var last api.JobInfo
	for i, body := range [][]byte{a, b, a, b} {
		resp, data := postTrace(t, srv.URL, body, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d = %s", i, resp.Status)
		}
		if err := json.Unmarshal(data, &last); err != nil {
			t.Fatal(err)
		}
		if last.CacheHit {
			t.Fatalf("submission %d hit a cache of one entry holding the other trace", i)
		}
		pool.Wait() // submissions 2 and 3 are memo hits that ran all the same
	}
	if m := pool.Metrics(); m.CacheMisses != 4 || m.Done != 4 {
		t.Fatalf("misses/done = %d/%d, want 4/4: every alternating submission runs", m.CacheMisses, m.Done)
	}

	// Block the backend, resubmit a (memo hit, cache miss again), crash.
	gate := make(chan struct{})
	backend.gate = gate
	resp, data := postTrace(t, srv.URL, a, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gated submission = %s", resp.Status)
	}
	var pending api.JobInfo
	if err := json.Unmarshal(data, &pending); err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		pool.Close()
		st.Close()
	}()

	st2, err := store.Open(dir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if len(rec.Pending) != 1 || rec.Pending[0].Digest != pending.Digest {
		t.Fatalf("recovered %d pending jobs %+v, want the one gated job %s", len(rec.Pending), rec.Pending, pending.Digest)
	}
	cfg.OnJobEvent, cfg.OnCacheInsert, cfg.OnCacheEvict = st2.OnJobEvent, st2.CacheChanged, st2.CacheChanged
	pool2 := fleet.New(llm.NewSim(), cfg)
	defer pool2.Close()
	if _, resubmitted, err := st2.Replay(pool2); err != nil || resubmitted != 1 {
		t.Fatalf("replay resubmitted %d jobs, err %v; want 1", resubmitted, err)
	}
	pool2.Wait()
	jobs := pool2.Jobs()
	if len(jobs) != 1 || jobs[0].Digest() != pending.Digest || jobs[0].Status() != fleet.StatusDone {
		t.Fatalf("replayed jobs = %+v, want the gated job's digest, done", jobs)
	}
}
