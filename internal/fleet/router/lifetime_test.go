package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
)

// lifetimeTrace is submission id's body: its first 8 bytes name id, and
// every later byte is a function of id and its position, so a reader
// holding any prefix can tell whether it is id's.
func lifetimeTrace(id uint64, size int) []byte {
	b := make([]byte, size)
	binary.BigEndian.PutUint64(b, id)
	for i := 8; i < size; i++ {
		b[i] = byte(id*13 + uint64(i)%251)
	}
	return b
}

// lateReads is a transport that hands a forward's head to the wire at
// once and reads the rest of its body only when gate(id) opens, checking
// every byte against what was submitted: a RoundTripper that reads a
// request body after RoundTrip has returned, as net/http may.
type lateReads struct {
	t     *testing.T
	inner http.RoundTripper
	size  int
	gate  func(id uint64) <-chan struct{}
}

func (lr *lateReads) RoundTrip(req *http.Request) (*http.Response, error) {
	var head [8]byte
	if _, err := io.ReadFull(req.Body, head[:]); err != nil {
		req.Body.Close()
		return nil, err
	}
	id := binary.BigEndian.Uint64(head[:])
	out := req.Clone(req.Context())
	out.Body = &checkedBody{lr: lr, rc: req.Body, id: id, want: lifetimeTrace(id, lr.size)}
	out.GetBody = nil
	return lr.inner.RoundTrip(out)
}

// checkedBody is one forward's body as lateReads reads it.
type checkedBody struct {
	lr   *lateReads
	rc   io.ReadCloser
	id   uint64
	want []byte
	pos  int
	bad  bool
}

func (b *checkedBody) Read(p []byte) (int, error) {
	if b.pos < 8 {
		n := copy(p, b.want[b.pos:8])
		b.pos += n
		return n, nil
	}
	if b.pos == 8 {
		<-b.lr.gate(b.id)
	}
	n, err := b.rc.Read(p)
	if !b.bad && !bytes.Equal(p[:n], b.want[b.pos:b.pos+n]) {
		b.bad = true
		b.lr.t.Errorf("trace %d: the transport read bytes %d-%d after the router's handler let go, and they are not the trace sent", b.id, b.pos, b.pos+n)
	}
	b.pos += n
	return n, err
}

func (b *checkedBody) Close() error { return b.rc.Close() }

// TestRouterBodyLifetimeEarlyReply: a member that refuses a submission
// before it has read the body (an early 4xx, as a draining node or an
// exhausted quota answers) lets the router's handler finish, and drop its
// hold on the trace, while the forward is still being written. Here the
// transport reads the rest of each forward only after the submitter has
// had the reply to its next submission, so the router has read another
// body, into a recycled buffer if one was free, in between. Under
// concurrent submissions of distinct traces the member still receives
// each trace once, and every byte the transport and the member read is
// the byte that was sent. Run it with -race.
func TestRouterBodyLifetimeEarlyReply(t *testing.T) {
	const (
		size       = 64 << 10 // pooled
		submitters = 4
		each       = 6
	)
	var (
		mu   sync.Mutex
		seen = map[uint64]int{}
	)
	// gates[id] opens once id's submitter has the reply to its next
	// submission, or has no next one.
	gates := make(map[uint64]chan struct{})
	for id := uint64(1); id <= submitters*each; id++ {
		gates[id] = make(chan struct{})
	}
	// The member takes the connection over, so that it can answer first
	// and read the body after, as a raw HTTP/1.1 peer may.
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		body := io.LimitReader(rw, r.ContentLength)
		var head [8]byte
		if _, err := io.ReadFull(body, head[:]); err != nil {
			t.Errorf("member read the trace's head: %v", err)
			return
		}
		id := binary.BigEndian.Uint64(head[:])
		mu.Lock()
		seen[id]++
		mu.Unlock()
		reply, err := json.Marshal(api.Errorf(api.CodeBadTrace, "refused before reading trace %d", id))
		if err != nil {
			t.Error(err)
			return
		}
		fmt.Fprintf(rw, "HTTP/1.1 400 Bad Request\r\n%s: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
			api.VersionHeader, api.CurrentHeader, len(reply), reply)
		if err := rw.Flush(); err != nil {
			t.Error(err)
			return
		}
		// Whatever of the rest arrives before the router hangs up.
		rest, _ := io.ReadAll(body)
		if want := lifetimeTrace(id, size)[8:]; !bytes.Equal(rest, want[:len(rest)]) {
			t.Errorf("trace %d: the member read %d bytes after its reply that are not the trace sent", id, len(rest))
		}
	}))
	t.Cleanup(member.Close)
	transport := &http.Transport{}
	t.Cleanup(transport.CloseIdleConnections)
	rt, err := New(Config{
		Members: []string{member.URL},
		ClientOptions: []client.Option{
			client.WithRetry(1, time.Millisecond),
			client.WithHTTPClient(&http.Client{Transport: &lateReads{
				t: t, inner: transport, size: size,
				gate: func(id uint64) <-chan struct{} { return gates[id] },
			}}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			first := uint64(g*each + 1)
			for id := first; id < first+each; id++ {
				resp, err := http.Post(front.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(lifetimeTrace(id, size)))
				if id > first {
					close(gates[id-1])
				}
				if err != nil {
					t.Error(err)
					continue
				}
				var e api.Error
				err = json.NewDecoder(resp.Body).Decode(&e)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadTrace {
					t.Errorf("submission %d via router = %d %+v (%v), want the member's 400 bad_trace", id, resp.StatusCode, e, err)
				}
			}
			close(gates[first+each-1])
		}(g)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != submitters*each {
		t.Errorf("member saw %d distinct traces, want %d", len(seen), submitters*each)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("member received trace %d %d times, want once", id, n)
		}
	}
}
