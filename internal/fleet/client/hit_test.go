package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ioagent/internal/fleet/api"
)

// hitFake is a daemon whose every submission is an exact hit: each
// submission reply (buffered, streamed, upload completion) is a done job
// with a fresh ID, carrying the job's diagnosis in Text unless noText
// (a server older than api 1.7). GET /v1/jobs/{id}/diagnosis answers any
// job it accepted. It counts every request and the diagnosis reads.
type hitFake struct {
	noText   bool
	jobs     atomic.Int64
	requests atomic.Int64
	reads    atomic.Int64
}

// hitText is the diagnosis the fake serves for job id.
func hitText(id string) string { return "diagnosis of " + id }

func (f *hitFake) serve(t *testing.T) *httptest.Server {
	return newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		f.requests.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/diagnosis"):
			f.reads.Add(1)
			id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/diagnosis")
			json.NewEncoder(w).Encode(api.Diagnosis{JobID: id, Digest: "d-" + id, Lane: api.LaneInteractive, CacheHit: true, Text: hitText(id)})
		case r.Method == http.MethodPost && r.URL.Path == "/v1/uploads":
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(api.UploadInfo{ID: "n1-up-000001"})
		case r.Method == http.MethodPatch:
			json.NewEncoder(w).Encode(api.UploadInfo{ID: "n1-up-000001", Offset: int64(len("trace"))})
		case r.Method == http.MethodPost:
			id := fmt.Sprintf("n1-job-%06d", f.jobs.Add(1))
			info := api.JobInfo{ID: id, Digest: "d-" + id, Status: api.StatusDone, Lane: api.LaneInteractive, CacheHit: true}
			if !f.noText {
				info.Text = hitText(id)
			}
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(info)
		default:
			writeErr(w, api.Errorf(api.CodeNotFound, "unknown endpoint %s", r.URL.Path))
		}
	})
}

// submitVia submits one trace through a Client entry point.
var submitVia = map[string]func(context.Context, *Client) (api.JobInfo, error){
	"submit": func(ctx context.Context, c *Client) (api.JobInfo, error) {
		return c.Submit(ctx, api.SubmitRequest{Trace: []byte("trace")})
	},
	"stream": func(ctx context.Context, c *Client) (api.JobInfo, error) {
		return c.SubmitStream(ctx, bytes.NewReader([]byte("trace")), StreamOpts{Digest: strings.Repeat("ab", 32)})
	},
	"chunked": func(ctx context.Context, c *Client) (api.JobInfo, error) {
		return c.SubmitChunked(ctx, bytes.NewReader([]byte("trace")), 0, StreamOpts{})
	},
}

// TestWaitDiagnosisOnHitCostsNoRequest: a submission whose reply is a
// done job with its diagnosis — by every entry point — is waited on
// without a request, and the wait returns what the diagnosis read would
// have. A second wait on the same job reads the daemon.
func TestWaitDiagnosisOnHitCostsNoRequest(t *testing.T) {
	for name, submit := range submitVia {
		t.Run(name, func(t *testing.T) {
			f := &hitFake{}
			c := New(f.serve(t).URL)
			t.Cleanup(c.Close)
			ctx := context.Background()
			info, err := submit(ctx, c)
			if err != nil || info.Text != hitText(info.ID) {
				t.Fatalf("submit = %+v, %v; want a done reply with its diagnosis", info, err)
			}
			before := f.requests.Load()
			got, err := c.WaitDiagnosis(ctx, info.ID)
			if err != nil {
				t.Fatal(err)
			}
			if n := f.requests.Load() - before; n != 0 {
				t.Errorf("wait on a hit cost %d requests, want 0", n)
			}
			read, err := c.Diagnosis(ctx, info.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got != read {
				t.Errorf("wait on the hit = %+v, the diagnosis read serves %+v", got, read)
			}
			reads := f.reads.Load()
			if _, err := c.WaitDiagnosis(ctx, info.ID); err != nil || f.reads.Load() != reads+1 {
				t.Errorf("second wait on the same job = %v after %d diagnosis reads, want one read", err, f.reads.Load()-reads)
			}
		})
	}
}

// TestWaitDiagnosisInterleavedHits: the client remembers only the latest
// reply. Waiting on the older of two hits reads the daemon once and gets
// that job's own diagnosis; the newer one is still answered from its
// reply.
func TestWaitDiagnosisInterleavedHits(t *testing.T) {
	f := &hitFake{}
	c := New(f.serve(t).URL)
	t.Cleanup(c.Close)
	ctx := context.Background()
	a, err := c.Submit(ctx, api.SubmitRequest{Trace: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, api.SubmitRequest{Trace: []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	da, err := c.WaitDiagnosis(ctx, a.ID)
	if err != nil || da.JobID != a.ID || da.Text != hitText(a.ID) {
		t.Fatalf("wait on the older hit = %+v, %v; want %s's own diagnosis", da, err, a.ID)
	}
	if f.reads.Load() != 1 {
		t.Errorf("wait on the older hit made %d diagnosis reads, want 1", f.reads.Load())
	}
	db, err := c.WaitDiagnosis(ctx, b.ID)
	if err != nil || db.JobID != b.ID || db.Text != hitText(b.ID) {
		t.Fatalf("wait on the newer hit = %+v, %v", db, err)
	}
	if f.reads.Load() != 1 {
		t.Errorf("wait on the newer hit read the daemon (%d reads in all), want it answered from its reply", f.reads.Load())
	}
}

// TestWaitDiagnosisOnHitWithoutText: a done reply without a diagnosis —
// what an api 1.6 daemon sends for a hit — leaves the wait to read the
// daemon.
func TestWaitDiagnosisOnHitWithoutText(t *testing.T) {
	f := &hitFake{noText: true}
	c := New(f.serve(t).URL)
	t.Cleanup(c.Close)
	ctx := context.Background()
	info, err := c.Submit(ctx, api.SubmitRequest{Trace: []byte("trace")})
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.WaitDiagnosis(ctx, info.ID)
	if err != nil || d.Text != hitText(info.ID) || f.reads.Load() != 1 {
		t.Fatalf("wait = %+v, %v after %d diagnosis reads; want the daemon's diagnosis from one read", d, err, f.reads.Load())
	}
}

// TestClusterWaitDiagnosisReadsOwner: a Cluster keeps no reply (its
// member clients serve a router, which never waits), so its wait on a hit
// reads the owning node, whichever entry point submitted it.
func TestClusterWaitDiagnosisReadsOwner(t *testing.T) {
	f := &hitFake{}
	base := f.serve(t).URL
	cl, err := NewCluster([]string{base})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	ctx := context.Background()
	submits := map[string]func() (api.JobInfo, error){
		"submit": func() (api.JobInfo, error) { return cl.Submit(ctx, api.SubmitRequest{Trace: []byte("trace")}) },
		"stream": func() (api.JobInfo, error) {
			return cl.SubmitStream(ctx, bytes.NewReader([]byte("trace")), StreamOpts{})
		},
		"chunked": func() (api.JobInfo, error) {
			return cl.SubmitChunked(ctx, bytes.NewReader([]byte("trace")), 0, StreamOpts{})
		},
	}
	for name, submit := range submits {
		info, err := submit()
		if err != nil || info.Text != hitText(info.ID) {
			t.Fatalf("%s = %+v, %v; want a done reply with its diagnosis", name, info, err)
		}
		if d := cl.cur.Load().clients[base].done.Load(); d != nil {
			t.Errorf("%s: member client kept the reply of %s", name, d.JobID)
		}
		reads := f.reads.Load()
		if d, err := cl.WaitDiagnosis(ctx, info.ID); err != nil || d.Text != hitText(info.ID) || f.reads.Load() != reads+1 {
			t.Errorf("%s: cluster wait = %+v, %v after %d reads, want one read", name, d, err, f.reads.Load()-reads)
		}
	}
}

// TestWaitDiagnosisOnHitConcurrent: goroutines sharing one Client submit
// hits and wait on them; every wait returns its own job's diagnosis,
// whether it took the remembered reply or lost it to another submission
// and read the daemon. Meant for -race.
func TestWaitDiagnosisOnHitConcurrent(t *testing.T) {
	f := &hitFake{}
	c := New(f.serve(t).URL)
	t.Cleanup(c.Close)
	ctx := context.Background()
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				info, err := c.Submit(ctx, api.SubmitRequest{Trace: []byte("trace")})
				if err != nil {
					errs <- err
					return
				}
				d, err := c.WaitDiagnosis(ctx, info.ID)
				if err != nil || d.JobID != info.ID || d.Text != hitText(info.ID) {
					errs <- fmt.Errorf("wait on %s = %+v, %v", info.ID, d, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if total := workers * rounds; f.requests.Load() < int64(total) || f.requests.Load() > int64(2*total) {
		t.Errorf("%d requests for %d submit-and-wait rounds, want between one and two per round", f.requests.Load(), total)
	}
}
