package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/bufpool"
	"ioagent/internal/fleet/client"
)

// lateTransport answers every request at once with a fixed 202 job reply
// and leaves the request body unread and open, as an http.RoundTripper
// may: the body is the test's to read and close after the round trip.
type lateTransport struct {
	reply []byte
	last  *http.Request
}

func (lt *lateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	lt.last = req
	h := http.Header{}
	h.Set(api.VersionHeader, api.CurrentHeader)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(lt.reply)))
	return &http.Response{
		StatusCode:    http.StatusAccepted,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(lt.reply)),
		ContentLength: int64(len(lt.reply)),
		Request:       req,
	}, nil
}

// fill writes a pattern that names tag into b.
func fill(b []byte, tag int) {
	for i := range b {
		b[i] = byte(tag*7 + i%251)
	}
}

// TestForwardBodyLifetimeLateClose: a forward of a held trace — what the
// router sends a member — carries its length and a GetBody, and its body
// holds the trace past the round trip. The caller lets go first, other
// goroutines recycle buffers of the same size, and the transport still
// reads exactly what was sent when it gets round to it; once it closes
// the body, nothing can replay it. Run it with -race.
func TestForwardBodyLifetimeLateClose(t *testing.T) {
	const size = 4096
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lt := &lateTransport{reply: []byte(`{"id":"fk-job-000001","status":"queued","future_field":[1,2]}` + "\n")}
			cl, err := client.NewCluster([]string{"http://127.0.0.1:1"},
				client.WithHTTPClient(&http.Client{Transport: lt}), client.WithRetry(1, time.Millisecond))
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			want := make([]byte, size)
			for i := 0; i < 50; i++ {
				tag := g*50 + i
				trace := bufpool.Get(size)
				fill(trace.B, tag)
				fill(want, tag)
				err := cl.SubmitJSON(context.Background(), api.LaneBatch, "acme", trace, func(reply []byte) error {
					if !bytes.Equal(reply, lt.reply) {
						return fmt.Errorf("reply lent to use = %q, the member sent %q", reply, lt.reply)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				req := lt.last
				if req.ContentLength != size || req.GetBody == nil {
					t.Errorf("forward carries ContentLength %d and GetBody %v; want %d and a replay", req.ContentLength, req.GetBody != nil, size)
					return
				}
				if i == 0 {
					replay, err := req.GetBody()
					if err != nil {
						t.Error(err)
						return
					}
					if got, err := io.ReadAll(replay); err != nil || !bytes.Equal(got, want) {
						t.Errorf("GetBody replays %d bytes (%v), not the trace", len(got), err)
					}
					replay.Close()
				}
				trace.Release() // the caller lets go before the transport is done
				for k := 0; k < 3; k++ {
					other := bufpool.Get(size)
					fill(other.B, -1)
					other.Release()
				}
				got, err := io.ReadAll(req.Body)
				req.Body.Close()
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d, forward %d: the transport read %d bytes (%v) that are not the trace sent", g, i, len(got), err)
					return
				}
				if _, err := req.GetBody(); !errors.Is(err, bufpool.ErrReleased) {
					t.Errorf("GetBody after the last holder let go = %v, want ErrReleased", err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// roundTripFunc is an http.RoundTripper made of a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestClusterLearnsBeforeRelay: a relay that has the accepted job's ID
// in hand already routes lookups for it. The member cannot be probed for
// its node id (its /metrics fails), so a lookup made from inside the
// reply's use — before SubmitJSON returns, as a caller that got the
// relayed reply at once would make it — finds the job only if the ID's
// node prefix was learned before use ran.
func TestClusterLearnsBeforeRelay(t *testing.T) {
	const id = "n1-job-000001"
	job := []byte(`{"id":"` + id + `","status":"done"}`)
	transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		status := http.StatusOK
		switch {
		case req.URL.Path == "/metrics":
			return nil, errors.New("node id probe refused")
		case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
			status = http.StatusAccepted
		case req.URL.Path != "/v1/jobs/"+id:
			return nil, fmt.Errorf("unexpected %s %s", req.Method, req.URL.Path)
		}
		h := http.Header{}
		h.Set(api.VersionHeader, api.CurrentHeader)
		h.Set("Content-Type", "application/json")
		return &http.Response{StatusCode: status, Header: h, Request: req,
			Body: io.NopCloser(bytes.NewReader(job)), ContentLength: int64(len(job))}, nil
	})
	cl, err := client.NewCluster([]string{"http://127.0.0.1:1"},
		client.WithHTTPClient(&http.Client{Transport: transport}), client.WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	err = cl.SubmitJSON(ctx, api.LaneBatch, "acme", bufpool.Wrap([]byte("trace")), func([]byte) error {
		return cl.JobJSON(ctx, id, func(reply []byte) error {
			if !bytes.Equal(reply, job) {
				return fmt.Errorf("lookup relayed %q, want %q", reply, job)
			}
			return nil
		})
	})
	if err != nil {
		t.Errorf("lookup of the accepted job while its reply is relayed: %v", err)
	}
}
