package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ioagent/internal/fleet/api"
)

// streamBody is large enough that a refused attempt has shipped bytes.
var streamBody = []byte(strings.Repeat("stream body line\n", 4096))

// onlyReader hides every method but Read, so the body cannot rewind.
type onlyReader struct{ io.Reader }

// streamServer reads each request body whole, refuses the first refuse
// requests with draining, accepts the rest, and records what it got.
type streamServer struct {
	URL  string
	hits atomic.Int64
	got  atomic.Pointer[[]byte]
}

func newStreamServer(t *testing.T, refuse int64) *streamServer {
	s := &streamServer{}
	srv := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if s.hits.Add(1) <= refuse {
			writeErr(w, api.Errorf(api.CodeDraining, "draining"))
			return
		}
		s.got.Store(&body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{ID: "s-job-000001", Status: api.StatusQueued})
	})
	s.URL = srv.URL
	return s
}

func (s *streamServer) delivered() []byte {
	if p := s.got.Load(); p != nil {
		return *p
	}
	return nil
}

// TestClientSubmitStreamRetriesSeekableBody: a seekable body is rewound
// after a 503 and the retry delivers the whole body.
func TestClientSubmitStreamRetriesSeekableBody(t *testing.T) {
	srv := newStreamServer(t, 1)
	c := New(srv.URL, WithRetry(3, time.Millisecond))
	instantSleep(c)
	if _, err := c.SubmitStream(context.Background(), bytes.NewReader(streamBody), StreamOpts{}); err != nil {
		t.Fatal(err)
	}
	if srv.hits.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2 (refusal, then retry)", srv.hits.Load())
	}
	if !bytes.Equal(srv.delivered(), streamBody) {
		t.Fatalf("retry delivered %d bytes, want the whole %d", len(srv.delivered()), len(streamBody))
	}
}

// TestClientSubmitStreamNonSeekableIsFinal: a body that cannot rewind
// gets exactly one attempt, and the 503 comes back as the server sent it.
func TestClientSubmitStreamNonSeekableIsFinal(t *testing.T) {
	srv := newStreamServer(t, 1)
	c := New(srv.URL, WithRetry(3, time.Millisecond))
	slept := instantSleep(c)
	_, err := c.SubmitStream(context.Background(), onlyReader{bytes.NewReader(streamBody)}, StreamOpts{})
	if api.ErrorCode(err) != api.CodeDraining {
		t.Fatalf("err = %v, want the server's draining refusal", err)
	}
	if srv.hits.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("%d requests and sleeps %v, want one attempt and no backoff", srv.hits.Load(), *slept)
	}
}

// digestOwnedBy returns a digest whose ring owner is member.
func digestOwnedBy(t *testing.T, cl *Cluster, member string) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		if d := fmt.Sprintf("%064x", i); cl.RouteDigest(d)[0] == member {
			return d
		}
	}
	t.Fatalf("no digest routed to %s", member)
	return ""
}

// streamCluster builds a two-member cluster and returns a digest that
// owner owns.
func streamCluster(t *testing.T, owner, successor *streamServer) (*Cluster, string) {
	t.Helper()
	cl, err := NewCluster([]string{owner.URL, successor.URL}, WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, digestOwnedBy(t, cl, owner.URL)
}

// TestClusterSubmitStreamPartlyShippedIsFinal: once a non-seekable body
// has shipped bytes to the owner, the owner's error is returned and the
// successor gets no request.
func TestClusterSubmitStreamPartlyShippedIsFinal(t *testing.T) {
	owner, successor := newStreamServer(t, 1), newStreamServer(t, 0)
	cl, digest := streamCluster(t, owner, successor)
	_, err := cl.SubmitStream(context.Background(), onlyReader{bytes.NewReader(streamBody)}, StreamOpts{Digest: digest})
	if api.ErrorCode(err) != api.CodeDraining {
		t.Fatalf("err = %v, want the owner's draining refusal", err)
	}
	if owner.hits.Load() != 1 || successor.hits.Load() != 0 {
		t.Fatalf("owner/successor saw %d/%d requests, want 1/0", owner.hits.Load(), successor.hits.Load())
	}
}

// TestClusterSubmitStreamFailsOverSeekableBody: a seekable body is
// rewound and delivered whole to the successor.
func TestClusterSubmitStreamFailsOverSeekableBody(t *testing.T) {
	owner, successor := newStreamServer(t, 1), newStreamServer(t, 0)
	cl, digest := streamCluster(t, owner, successor)
	if _, err := cl.SubmitStream(context.Background(), bytes.NewReader(streamBody), StreamOpts{Digest: digest}); err != nil {
		t.Fatal(err)
	}
	if owner.hits.Load() != 1 || successor.hits.Load() != 1 {
		t.Fatalf("owner/successor saw %d/%d requests, want 1/1", owner.hits.Load(), successor.hits.Load())
	}
	if !bytes.Equal(successor.delivered(), streamBody) {
		t.Fatalf("successor got %d bytes, want the whole %d", len(successor.delivered()), len(streamBody))
	}
}

// TestClientUploadOpenRefusesLongTenant: the tenant bound is checked
// before anything is sent.
func TestClientUploadOpenRefusesLongTenant(t *testing.T) {
	var hits atomic.Int64
	srv := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) { hits.Add(1) })
	c := New(srv.URL)
	_, err := c.UploadOpen(context.Background(), StreamOpts{Tenant: strings.Repeat("t", api.MaxTenantLen+1)})
	if api.ErrorCode(err) != api.CodeBadRequest {
		t.Fatalf("err = %v, want bad_request", err)
	}
	if hits.Load() != 0 {
		t.Fatalf("server saw %d requests, want 0", hits.Load())
	}
}
