package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/ioagent"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
)

// do sends one request and returns the status and the body as served.
func do(t *testing.T, method, url string, body []byte, header map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
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
	return resp.StatusCode, data
}

// TestSubmitReplyCarriesDoneDiagnosis: a submission whose job is done
// when its 202 is written — a resubmitted trace, by every submission
// endpoint — carries the diagnosis GET /diagnosis serves; the reply of a
// job still queued carries none, and neither the job read nor the job
// list ever does.
func TestSubmitReplyCarriesDoneDiagnosis(t *testing.T) {
	gate := make(chan struct{})
	pool := fleet.New(&gatedClient{inner: llm.NewSim(), gate: gate}, fleet.Config{
		Workers: 1,
		Agent:   ioagent.Options{Index: knowledge.BuildIndex()},
	})
	t.Cleanup(pool.Close)
	srv := httptest.NewServer(NewMux(Config{Pool: pool}))
	t.Cleanup(srv.Close)

	raw := encodeTraceBytes(t, testTrace(61))
	status, reply := do(t, http.MethodPost, srv.URL+"/v1/jobs", raw, nil)
	var queued api.JobInfo
	if err := json.Unmarshal(reply, &queued); err != nil || status != http.StatusAccepted {
		t.Fatalf("first submit = %d %s (%v)", status, reply, err)
	}
	if queued.Status == api.StatusDone || bytes.Contains(reply, []byte(`"text"`)) {
		t.Errorf("the reply of a job not yet done = %s, want no text", reply)
	}
	close(gate)
	pool.Wait()
	_, want := do(t, http.MethodGet, srv.URL+"/v1/jobs/"+queued.ID+"/diagnosis", nil, nil)
	var diag api.Diagnosis
	if err := json.Unmarshal(want, &diag); err != nil || diag.Text == "" {
		t.Fatalf("diagnosis = %s (%v)", want, err)
	}

	text := textTraceBytes(t, testTrace(61))
	submits := map[string]func() (int, []byte){
		"buffered": func() (int, []byte) { return do(t, http.MethodPost, srv.URL+"/v1/jobs", raw, nil) },
		"stream":   func() (int, []byte) { return do(t, http.MethodPost, srv.URL+"/v1/jobs/stream", text, nil) },
		"upload": func() (int, []byte) {
			_, opened := do(t, http.MethodPost, srv.URL+"/v1/uploads", nil, nil)
			var up api.UploadInfo
			if err := json.Unmarshal(opened, &up); err != nil {
				t.Fatalf("open = %s (%v)", opened, err)
			}
			do(t, http.MethodPatch, srv.URL+"/v1/uploads/"+up.ID, text, map[string]string{api.UploadOffsetHeader: "0"})
			return do(t, http.MethodPost, srv.URL+"/v1/uploads/"+up.ID+"/complete", nil, nil)
		},
	}
	for name, submit := range submits {
		status, reply := submit()
		var hit api.JobInfo
		if err := json.Unmarshal(reply, &hit); err != nil || status != http.StatusAccepted {
			t.Fatalf("%s resubmit = %d %s (%v)", name, status, reply, err)
		}
		if hit.Status != api.StatusDone || !hit.CacheHit || hit.Text != diag.Text {
			t.Errorf("%s resubmit = %+v, want a done cache hit carrying the diagnosis", name, hit)
		}
		_, hitDiag := do(t, http.MethodGet, srv.URL+"/v1/jobs/"+hit.ID+"/diagnosis", nil, nil)
		var d api.Diagnosis
		if err := json.Unmarshal(hitDiag, &d); err != nil || d.Text != hit.Text {
			t.Errorf("%s: reply text differs from GET /diagnosis %s (%v)", name, hitDiag, err)
		}
		if _, job := do(t, http.MethodGet, srv.URL+"/v1/jobs/"+hit.ID, nil, nil); bytes.Contains(job, []byte(`"text"`)) {
			t.Errorf("%s: GET /v1/jobs/{id} = %s, want no text", name, job)
		}
	}
	if _, list := do(t, http.MethodGet, srv.URL+"/v1/jobs", nil, nil); strings.Contains(string(list), `"text"`) {
		t.Errorf("GET /v1/jobs carries text: %s", list)
	}
}

// TestHitWaitAllocFence: through the SDK, waiting on an exact hit costs
// what the resubmission alone costs — the reply carried the diagnosis, so
// the wait allocates nothing on either side of the wire.
func TestHitWaitAllocFence(t *testing.T) {
	_, srv := testMux(t, 64<<20)
	c := client.New(srv.URL)
	t.Cleanup(c.Close)
	ctx := context.Background()
	req := api.SubmitRequest{Trace: encodeTraceBytes(t, testTrace(62))}
	if _, err := c.SubmitAndWait(ctx, req); err != nil {
		t.Fatal(err)
	}
	resubmit := func() api.JobInfo {
		info, err := c.Submit(ctx, req)
		if err != nil || !info.CacheHit {
			t.Fatalf("resubmit = %+v, %v; want a cache hit", info, err)
		}
		return info
	}
	submit := testing.AllocsPerRun(50, func() { resubmit() })
	hit := testing.AllocsPerRun(50, func() {
		if _, err := c.WaitDiagnosis(ctx, resubmit().ID); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a resubmission allocates %.0f objects, a resubmission and its wait %.0f", submit, hit)
	if raceEnabled {
		return // race instrumentation makes the counts vary run to run
	}
	if hit > submit+2 {
		t.Errorf("the wait on a hit allocates %.0f objects beyond its resubmission's %.0f, want none", hit-submit, submit)
	}
}
