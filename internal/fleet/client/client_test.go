package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ioagent/internal/fleet/api"
)

// instantSleep makes backoff free while recording the schedule.
func instantSleep(c *Client) *[]time.Duration {
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		slept = append(slept, d)
		return nil
	}
	return &slept
}

// newAPIServer wraps a handler with the version header the client checks.
func newAPIServer(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, api.Current.String())
		h(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func writeErr(w http.ResponseWriter, e *api.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Code.HTTPStatus())
	json.NewEncoder(w).Encode(e)
}

// TestClientRetriesFlakyServer injects llm.Flaky-style periodic 503s: the
// first two attempts hit a draining instance, the third succeeds, and the
// backoff schedule doubles between attempts.
func TestClientRetriesFlakyServer(t *testing.T) {
	var calls atomic.Int64
	srv := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeErr(w, api.Errorf(api.CodeDraining, "daemon is draining"))
			return
		}
		json.NewEncoder(w).Encode(api.JobInfo{ID: "job-000001", Status: api.StatusQueued, Lane: api.LaneBatch})
	})

	c := New(srv.URL, WithRetry(4, 10*time.Millisecond))
	slept := instantSleep(c)
	info, err := c.Submit(context.Background(), api.SubmitRequest{Lane: api.LaneBatch, Trace: []byte("x")})
	if err != nil {
		t.Fatalf("submit through flaky server: %v", err)
	}
	if info.ID != "job-000001" || calls.Load() != 3 {
		t.Errorf("info=%+v after %d calls, want success on call 3", info, calls.Load())
	}
	if len(*slept) != 2 || (*slept)[1] != 2*(*slept)[0] {
		t.Errorf("backoff schedule = %v, want two doubling delays", *slept)
	}
}

func TestClientRetriesBare5xxAndTransportErrors(t *testing.T) {
	// The failing response deliberately carries NO version header and no
	// api.Error body — exactly what a proxy or LB in front of a bouncing
	// daemon serves — and must be retried, not refused as version skew.
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "proxy exploded", http.StatusBadGateway)
			return
		}
		w.Header().Set(api.VersionHeader, api.Current.String())
		json.NewEncoder(w).Encode(api.Metrics{Workers: 4})
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithRetry(3, time.Millisecond))
	instantSleep(c)
	m, err := c.Metrics(context.Background())
	if err != nil || m.Workers != 4 {
		t.Fatalf("metrics after bare 502 = %+v, %v", m, err)
	}

	// A connection that refuses outright is transport-level and retryable;
	// with the budget exhausted the transport error surfaces.
	dead := New("http://127.0.0.1:1", WithRetry(2, time.Millisecond))
	instantSleep(dead)
	if _, err := dead.Metrics(context.Background()); err == nil {
		t.Fatal("dead endpoint must fail after retries")
	}
}

func TestClientDoesNotRetryPermanentCodes(t *testing.T) {
	var calls atomic.Int64
	srv := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeErr(w, api.Errorf(api.CodeJobNotFound, "unknown job"))
	})
	c := New(srv.URL, WithRetry(5, time.Millisecond))
	instantSleep(c)
	_, err := c.Job(context.Background(), "job-999999")
	if api.ErrorCode(err) != api.CodeJobNotFound {
		t.Fatalf("err = %v, want job_not_found", err)
	}
	if calls.Load() != 1 {
		t.Errorf("permanent code retried %d times, want a single attempt", calls.Load())
	}
}

// TestClientRejectsVersionSkew is the version-skew acceptance test: a
// server speaking an unknown protocol major is refused before any payload
// is interpreted, and the refusal is not retried.
func TestClientRejectsVersionSkew(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set(api.VersionHeader, "2.0")
		json.NewEncoder(w).Encode(api.JobInfo{ID: "job-000001"})
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetry(3, time.Millisecond))
	instantSleep(c)
	_, err := c.Job(context.Background(), "job-000001")
	if api.ErrorCode(err) != api.CodeUnsupportedVersion {
		t.Fatalf("err = %v, want unsupported_version", err)
	}
	if calls.Load() != 1 {
		t.Errorf("version skew retried %d times, want 1", calls.Load())
	}
}

// TestClientRefusesUnversionedServer: a peer that never stamps the
// version header (a pre-versioning daemon, or some unrelated HTTP
// service) is refused before its payload is interpreted.
func TestClientRefusesUnversionedServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("I/O Performance Diagnosis\n")) // not even JSON
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetry(1, time.Millisecond))
	_, err := c.Job(context.Background(), "job-000001")
	if api.ErrorCode(err) != api.CodeUnsupportedVersion {
		t.Fatalf("err = %v, want unsupported_version for a header-less server", err)
	}
}

func TestClientSendsVersionAndLane(t *testing.T) {
	var gotVersion, gotLane atomic.Value
	srv := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		gotVersion.Store(r.Header.Get(api.VersionHeader))
		gotLane.Store(r.URL.Query().Get("lane"))
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{ID: "job-000001"})
	})
	c := New(srv.URL)
	if _, err := c.Submit(context.Background(), api.SubmitRequest{Trace: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if gotVersion.Load() != api.Current.String() {
		t.Errorf("request version header = %q, want %q", gotVersion.Load(), api.Current)
	}
	if gotLane.Load() != string(api.LaneInteractive) {
		t.Errorf("default lane on the wire = %q, want interactive", gotLane.Load())
	}
	if _, err := c.Submit(context.Background(), api.SubmitRequest{Lane: "bulk", Trace: []byte("x")}); api.ErrorCode(err) != api.CodeBadRequest {
		t.Errorf("unknown lane err = %v, want bad_request before any wire traffic", err)
	}
}

// jobFake serves job-000001 the way the daemon does: GET /v1/jobs/{id}
// reports its status, and GET /v1/jobs/{id}/diagnosis answers 409
// job_not_done until the job is terminal, then 502 diagnosis_failed for a
// failed job or the report for a done one. The job runs for its first
// `running` requests, whatever their path; each job_not_done carries a
// 1 s Retry-After, the hint the daemon and router put on refusals.
type jobFake struct {
	running  int64
	failed   bool
	requests atomic.Int64 // every request served
	reads    atomic.Int64 // diagnosis reads among them
}

const failedMsg = "job job-000001 failed permanently after 3 attempts"

func (f *jobFake) serve(t *testing.T) *httptest.Server {
	return newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		status := api.StatusDone
		if f.requests.Add(1) <= f.running {
			status = api.StatusRunning
		} else if f.failed {
			status = api.StatusFailed
		}
		switch r.URL.Path {
		case "/v1/jobs/job-000001":
			json.NewEncoder(w).Encode(api.JobInfo{ID: "job-000001", Status: status, Attempts: 3})
		case "/v1/jobs/job-000001/diagnosis":
			f.reads.Add(1)
			switch status {
			case api.StatusRunning:
				w.Header().Set(api.RetryAfterHeader, "1")
				writeErr(w, api.Errorf(api.CodeJobNotDone, "job job-000001 is running; poll it and retry"))
			case api.StatusFailed:
				writeErr(w, api.Errorf(api.CodeDiagnosisFailed, failedMsg))
			default:
				json.NewEncoder(w).Encode(api.Diagnosis{JobID: "job-000001", Text: "all small writes"})
			}
		default:
			writeErr(w, api.Errorf(api.CodeJobNotFound, "unknown job"))
		}
	})
}

// testPoll is the poll interval of the waits under test.
const testPoll = 7 * time.Millisecond

// waitOn runs WaitDiagnosis on job-000001 through a Client or (mode
// "cluster") a one-member Cluster over base, polling every testPoll, and
// returns its answer with the sleeps it asked for, recorded, not taken.
func waitOn(t *testing.T, mode, base string) (api.Diagnosis, []time.Duration, error) {
	c := New(base, WithPollInterval(testPoll))
	wait := c.WaitDiagnosis
	if mode == "cluster" {
		cl, err := NewCluster([]string{base}, WithPollInterval(testPoll))
		if err != nil {
			t.Fatal(err)
		}
		c, wait = cl.cur.Load().clients[base], cl.WaitDiagnosis
	}
	t.Cleanup(c.Close)
	slept := instantSleep(c)
	d, err := wait(context.Background(), "job-000001")
	return d, *slept, err
}

// TestWaitDiagnosisPollsToCompletion: WaitDiagnosis reads the diagnosis
// straight away, so a terminal job costs exactly one request, and a
// running job costs one job_not_done read per poll — each followed by a
// sleep of the poll interval, not the reply's 1 s Retry-After — plus the
// read that returns the report. Client and Cluster behave the same.
func TestWaitDiagnosisPollsToCompletion(t *testing.T) {
	for _, running := range []int64{0, 3} {
		for _, mode := range []string{"client", "cluster"} {
			t.Run(fmt.Sprintf("%s/running=%d", mode, running), func(t *testing.T) {
				f := &jobFake{running: running}
				d, slept, err := waitOn(t, mode, f.serve(t).URL)
				if err != nil {
					t.Fatal(err)
				}
				if d.Text != "all small writes" {
					t.Errorf("diagnosis = %+v", d)
				}
				if f.requests.Load() != running+1 || f.reads.Load() != running+1 {
					t.Errorf("%d requests (%d diagnosis reads), want %d diagnosis reads and nothing else",
						f.requests.Load(), f.reads.Load(), running+1)
				}
				if int64(len(slept)) != running {
					t.Fatalf("slept %v, want %d polls", slept, running)
				}
				for _, d := range slept {
					if d != testPoll {
						t.Errorf("slept %v, want every poll at the %v interval", slept, testPoll)
						break
					}
				}
			})
		}
	}
}

// TestWaitDiagnosisSurfacesJobFailure: a failed job's diagnosis_failed
// envelope comes back as the daemon sent it, message and attempt count
// included, after the polls the job spent running plus one read.
func TestWaitDiagnosisSurfacesJobFailure(t *testing.T) {
	for _, running := range []int64{0, 2} {
		for _, mode := range []string{"client", "cluster"} {
			t.Run(fmt.Sprintf("%s/running=%d", mode, running), func(t *testing.T) {
				f := &jobFake{running: running, failed: true}
				_, slept, err := waitOn(t, mode, f.serve(t).URL)
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != api.CodeDiagnosisFailed || ae.Message != failedMsg {
					t.Fatalf("err = %v, want diagnosis_failed %q", err, failedMsg)
				}
				if f.requests.Load() != running+1 || int64(len(slept)) != running {
					t.Errorf("%d requests and sleeps %v, want %d requests after %d polls",
						f.requests.Load(), slept, running+1, running)
				}
			})
		}
	}
}

func TestClientHonorsContextDuringBackoff(t *testing.T) {
	srv := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, api.Errorf(api.CodeDraining, "draining forever"))
	})
	ctx, cancel := context.WithCancel(context.Background())
	c := New(srv.URL, WithRetry(10, time.Hour)) // would retry for hours
	cancel()
	start := time.Now()
	_, err := c.Jobs(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context cancellation", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancelled backoff must return promptly")
	}
}

// rawReply serves a hand-written HTTP/1.1 response over the hijacked
// connection and closes it: head is the status line plus headers, body is
// written as is (so it may fall short of a declared Content-Length).
func rawReply(head, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			panic(err)
		}
		defer conn.Close()
		buf.WriteString(head + "\r\n" + api.VersionHeader + ": " + api.Current.String() + "\r\n\r\n" + body)
		buf.Flush()
	}
}

// lengthRecorder notes the Content-Length of every response it relays.
type lengthRecorder struct{ lengths []int64 }

func (l *lengthRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		l.lengths = append(l.lengths, resp.ContentLength)
	}
	return resp, err
}

// TestClientSizedReads: a declared Content-Length sizes the read. An exact
// body decodes; a body cut short of it is a retryable transport failure;
// a length over the 64 MiB cap is refused as too large before any byte is
// read; a chunked reply (no length) is read to EOF as before.
func TestClientSizedReads(t *testing.T) {
	job := `{"id":"n1-job-000001","status":"done"}`
	cases := []struct {
		name      string
		h         http.HandlerFunc
		wantCalls int64
		check     func(t *testing.T, info api.JobInfo, err error)
	}{
		{"exact", rawReply("HTTP/1.1 200 OK\r\nContent-Length: "+fmt.Sprint(len(job)), job), 1,
			func(t *testing.T, info api.JobInfo, err error) {
				if err != nil || info.ID != "n1-job-000001" || info.Status != api.StatusDone {
					t.Errorf("exact body = %+v, %v", info, err)
				}
			}},
		{"short", rawReply("HTTP/1.1 200 OK\r\nContent-Length: "+fmt.Sprint(len(job)+10), job), 2,
			func(t *testing.T, _ api.JobInfo, err error) {
				var te *transportError
				if !errors.As(err, &te) || !retryable(err) {
					t.Errorf("short body = %v, want a retryable transport error", err)
				}
			}},
		{"too large", rawReply("HTTP/1.1 200 OK\r\nContent-Length: "+fmt.Sprint(maxResponse+1), job), 1,
			func(t *testing.T, _ api.JobInfo, err error) {
				var se *json.SyntaxError
				if err == nil || !strings.Contains(err.Error(), "response too large") || errors.As(err, &se) || retryable(err) {
					t.Errorf("oversized reply = %v, want a permanent response-too-large error", err)
				}
			}},
		{"chunked", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(api.VersionHeader, api.Current.String())
			io.WriteString(w, job[:10])
			w.(http.Flusher).Flush() // commits the header without a length
			io.WriteString(w, job[10:])
		}, 1,
			func(t *testing.T, info api.JobInfo, err error) {
				if err != nil || info.ID != "n1-job-000001" {
					t.Errorf("chunked body = %+v, %v", info, err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				tc.h(w, r)
			}))
			t.Cleanup(srv.Close)
			lengths := &lengthRecorder{}
			c := New(srv.URL, WithRetry(2, time.Millisecond), WithHTTPClient(&http.Client{Transport: lengths}))
			instantSleep(c)
			info, err := c.Job(context.Background(), "n1-job-000001")
			tc.check(t, info, err)
			if calls.Load() != tc.wantCalls {
				t.Errorf("%d calls, want %d", calls.Load(), tc.wantCalls)
			}
			if tc.name == "chunked" && (len(lengths.lengths) != 1 || lengths.lengths[0] != -1) {
				t.Errorf("response lengths = %v, want one reply without Content-Length", lengths.lengths)
			}
		})
	}
}
