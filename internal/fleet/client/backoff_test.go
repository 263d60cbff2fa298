package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ioagent/internal/fleet/api"
)

// TestEndpointBackoffWidensAndClears drives the per-endpoint window
// directly: consecutive transient failures widen the deferral, a success
// clears it instantly.
func TestEndpointBackoffWidensAndClears(t *testing.T) {
	var b endpointBackoff
	now := time.Unix(1000, 0)

	if b.deferred(now) {
		t.Fatal("fresh endpoint is deferred")
	}
	b.observe(true, now)
	first := b.until.Sub(now)
	if !b.deferred(now.Add(time.Millisecond)) {
		t.Fatal("endpoint not deferred after a transient failure")
	}
	b.observe(true, now)
	second := b.until.Sub(now)
	if second <= first {
		t.Fatalf("consecutive failures did not widen the deferral: %v then %v", first, second)
	}
	for i := 0; i < 20; i++ {
		b.observe(true, now)
	}
	if got := b.until.Sub(now); got > endpointBackoffMax {
		t.Fatalf("deferral %v exceeds the %v cap", got, endpointBackoffMax)
	}
	b.observe(false, now)
	if b.deferred(now) {
		t.Fatal("success did not clear the deferral")
	}
	if b.streak != 0 {
		t.Fatalf("streak = %d after success, want 0", b.streak)
	}
}

// TestClusterDefersFailingEndpoint covers the router's spool/forward gap:
// after a member fails transiently, the very next submission must try the
// healthy member first instead of paying the failing owner's schedule
// again — and the deferred member must be retried once its backoff
// passes, never dropped.
func TestClusterDefersFailingEndpoint(t *testing.T) {
	var failHits, okHits atomic.Int64
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		failHits.Add(1)
		w.Header().Set(api.VersionHeader, api.Current.String())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(api.Error{Code: api.CodeDraining, Message: "draining"})
	}))
	defer failing.Close()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		okHits.Add(1)
		w.Header().Set(api.VersionHeader, api.Current.String())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{ID: "h-job-000001", Status: api.StatusQueued})
	}))
	defer healthy.Close()

	cl, err := NewCluster([]string{failing.URL, healthy.URL}, WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Pick a trace whose ring owner is the failing member, so the natural
	// failover order tries it first.
	var raw []byte
	for seed := 0; seed < 64; seed++ {
		raw = clusterTrace(t, seed)
		if cl.Route(raw)[0] == failing.URL {
			break
		}
		raw = nil
	}
	if raw == nil {
		t.Fatal("no seed routed to the failing member")
	}

	ctx := context.Background()
	if _, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw}); err != nil {
		t.Fatal(err)
	}
	if failHits.Load() != 1 || okHits.Load() != 1 {
		t.Fatalf("first submission hit fail/ok %d/%d times, want 1/1 (owner then successor)",
			failHits.Load(), okHits.Load())
	}

	// Within the backoff window the failing owner is deferred: the healthy
	// member answers first and the owner sees no traffic at all.
	if _, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw}); err != nil {
		t.Fatal(err)
	}
	if failHits.Load() != 1 {
		t.Fatalf("deferred member was still tried first (%d hits)", failHits.Load())
	}

	// After the backoff passes (1 failure in a 1-sample window: 100ms ×
	// (1+3·1) = 400ms) the member is eligible again and, as ring owner,
	// tried first.
	time.Sleep(500 * time.Millisecond)
	if _, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw}); err != nil {
		t.Fatal(err)
	}
	if failHits.Load() != 2 {
		t.Fatalf("expired deferral did not restore the member to the failover order (%d hits)", failHits.Load())
	}
}

// TestClusterUploadOpenDefersFailingOwner: an upload open walks the same
// backoff-ordered failover as a submission. After the digest's ring owner
// answers draining, a second open inside the backoff window goes to the
// healthy successor first and the owner sees no second request; once the
// window has passed, the owner is tried first again.
func TestClusterUploadOpenDefersFailingOwner(t *testing.T) {
	var failHits, okHits atomic.Int64
	failing := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		failHits.Add(1)
		writeErr(w, api.Errorf(api.CodeDraining, "draining"))
	})
	healthy := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		okHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(api.UploadInfo{ID: "h-up-000001"})
	})
	cl, err := NewCluster([]string{failing.URL, healthy.URL}, WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	digest := digestOwnedBy(t, cl, failing.URL)

	ctx := context.Background()
	open := func() {
		t.Helper()
		if _, err := cl.UploadOpen(ctx, StreamOpts{Digest: digest}); err != nil {
			t.Fatal(err)
		}
	}
	open()
	if failHits.Load() != 1 || okHits.Load() != 1 {
		t.Fatalf("first open hit fail/ok %d/%d times, want 1/1 (owner then successor)",
			failHits.Load(), okHits.Load())
	}
	open()
	if failHits.Load() != 1 || okHits.Load() != 2 {
		t.Fatalf("second open hit fail/ok %d/%d times, want 1/2 (deferred owner not tried first)",
			failHits.Load(), okHits.Load())
	}
	// One failure in a 1-sample window defers for 100ms × (1+3·1) = 400ms.
	time.Sleep(500 * time.Millisecond)
	open()
	if failHits.Load() != 2 {
		t.Fatalf("expired deferral did not restore the owner to the front (%d hits)", failHits.Load())
	}
}

// TestOrderByBackoffAllocFence: with no member deferred — every forward
// of a healthy fleet — the failover order is the ring's own slice and
// costs no allocation. A deferred member moves behind the eligible ones,
// in order, and a fleet that is all deferred keeps the ring's order.
func TestOrderByBackoffAllocFence(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c", "http://d"}
	ms := &membership{members: members, clients: make(map[string]*Client)}
	for _, m := range members {
		ms.clients[m] = New(m)
	}
	if allocs := testing.AllocsPerRun(100, func() { ms.orderByBackoff(members) }); allocs != 0 {
		t.Errorf("orderByBackoff with nothing deferred allocates %.0f objects, want 0", allocs)
	}
	if got := ms.orderByBackoff(members); &got[0] != &members[0] {
		t.Error("orderByBackoff with nothing deferred copied the order")
	}

	now := time.Now()
	ms.clients["http://b"].backoff.observe(true, now)
	ms.clients["http://d"].backoff.observe(true, now)
	want := []string{"http://a", "http://c", "http://b", "http://d"}
	if got := ms.orderByBackoff(members); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order with b and d deferred = %v, want %v", got, want)
	}
	ms.clients["http://a"].backoff.observe(true, now)
	ms.clients["http://c"].backoff.observe(true, now)
	if got := ms.orderByBackoff(members); fmt.Sprint(got) != fmt.Sprint(members) {
		t.Errorf("order with every member deferred = %v, want the ring's %v", got, members)
	}
}
