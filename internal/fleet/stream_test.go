package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/llm"
)

// TestSubmitPreparsedSharesCacheWithSubmit: a preparsed submission (the
// streaming ingest path) and a classic submission of the same trace must
// land on one digest — second submission is a cache hit, whichever path
// came first.
func TestSubmitPreparsedSharesCacheWithSubmit(t *testing.T) {
	p := New(llm.NewSim(), testConfig(2))
	defer p.Close()
	log := testTrace(1)
	cd, err := darshan.ContentDigest(log)
	if err != nil {
		t.Fatal(err)
	}

	j1, err := p.SubmitPreparsed(context.Background(), Preparsed{Log: log, ContentDigest: cd}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(); err != nil {
		t.Fatal(err)
	}

	j2, err := p.Submit(testTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	if j1.Digest() != j2.Digest() {
		t.Fatalf("preparsed digest %s != classic digest %s for the same trace", j1.Digest(), j2.Digest())
	}
	if !j2.Info().CacheHit {
		t.Error("classic submission after preparsed was not a cache hit")
	}
}

// TestTenantQuota: a tenant at its in-flight cap is refused with
// ErrTenantQuota; other tenants and anonymous submissions are not; the
// quota frees as jobs finish.
func TestTenantQuota(t *testing.T) {
	release := make(chan struct{})
	cfg := testConfig(1)
	cfg.TenantMaxInflight = 2
	cfg.QueueDepth = 16
	// Park the single worker so submissions stay in flight determinately.
	p := New(&gatedClient{inner: llm.NewSim(), gate: release, started: make(chan struct{})}, cfg)
	defer p.Close()
	defer close(release)

	for i := 0; i < 2; i++ {
		if _, err := submitOpts(p, testTrace(10+i), SubmitOpts{Tenant: "acme"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := submitOpts(p, testTrace(12), SubmitOpts{Tenant: "acme"}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota submission = %v, want ErrTenantQuota", err)
	}
	// Another tenant and anonymous traffic are unaffected.
	if _, err := submitOpts(p, testTrace(13), SubmitOpts{Tenant: "globex"}); err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	if _, err := submitOpts(p, testTrace(14), SubmitOpts{}); err != nil {
		t.Fatalf("anonymous submission refused: %v", err)
	}
	if got := p.Metrics().TenantsInflight["acme"]; got != 2 {
		t.Errorf("acme inflight = %d, want 2", got)
	}
}

// TestTenantQuotaFreesOnCompletion: finished jobs return their slots.
func TestTenantQuotaFreesOnCompletion(t *testing.T) {
	cfg := testConfig(2)
	cfg.TenantMaxInflight = 1
	p := New(llm.NewSim(), cfg)
	defer p.Close()

	j, err := submitOpts(p, testTrace(20), SubmitOpts{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	// Slot freed: next submission admitted.
	if _, err := submitOpts(p, testTrace(21), SubmitOpts{Tenant: "acme"}); err != nil {
		t.Fatalf("post-completion submission refused: %v", err)
	}
	p.Wait()
	if got := p.Metrics().TenantsInflight["acme"]; got != 0 {
		t.Errorf("acme inflight after drain = %d, want 0 (and the entry gone)", got)
	}
}

// TestSubmitPreparsedAbortsBackpressureWait: a canceled context frees a
// submitter stuck on a full lane queue — the job goes terminal failed
// (with its journal-covering event) instead of holding a goroutine for a
// client that hung up.
func TestSubmitPreparsedAbortsBackpressureWait(t *testing.T) {
	release := make(chan struct{})
	cfg := testConfig(1)
	cfg.QueueDepth = 1
	p := New(&gatedClient{inner: llm.NewSim(), gate: release, started: make(chan struct{})}, cfg)
	defer p.Close()
	defer close(release)

	// Fill the worker (1) and the queue (1).
	if _, err := p.Submit(testTrace(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(testTrace(31)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var aborted *Job
	go func() {
		j, err := p.SubmitPreparsed(ctx, Preparsed{Log: testTrace(32)}, SubmitOpts{})
		aborted = j
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the submit reach the queue send
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled submit returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SubmitPreparsed still blocked after cancel — backpressure wait ignores the context")
	}
	if aborted == nil || aborted.Status() != StatusFailed {
		t.Fatalf("aborted job status = %v, want failed", aborted.Status())
	}
}

// TestAbortedPrimaryFailsItsFollower: a duplicate that coalesced onto a
// primary still parked on a full lane ends with it when the primary's
// submitter hangs up — failed with the same wrapped cause, no longer
// reporting a cache hit, one terminal event each — and the pool's books
// balance once it is idle.
func TestAbortedPrimaryFailsItsFollower(t *testing.T) {
	release := make(chan struct{})
	gate := &gatedClient{inner: llm.NewSim(), gate: release, started: make(chan struct{})}
	var events eventLog
	cfg := testConfig(1)
	cfg.QueueDepth = 1
	cfg.OnJobEvent = events.record
	p := New(gate, cfg)
	defer p.Close()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark()

	// Park the worker on one job and fill the lane with another.
	if _, err := submitOpts(p, testTrace(40), SubmitOpts{Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	if _, err := submitOpts(p, testTrace(41), SubmitOpts{Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	type submitted struct {
		j   *Job
		err error
	}
	parked := make(chan submitted, 1)
	go func() {
		j, err := p.SubmitPreparsed(ctx, Preparsed{Log: testTrace(42)}, SubmitOpts{Tenant: "acme"})
		parked <- submitted{j, err}
	}()
	// The primary claims its digest before its submitted event fires, and
	// fires it just before it parks on the lane.
	deadline := time.Now().Add(2 * time.Second)
	for len(p.Jobs()) < 3 || len(events.byJob(p.Jobs()[2].ID())) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the third submission never announced itself")
		}
		time.Sleep(time.Millisecond)
	}
	follower, err := submitOpts(p, testTrace(42), SubmitOpts{Tenant: "globex"})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Info().CacheHit {
		t.Fatal("the duplicate did not coalesce onto the parked primary")
	}
	time.Sleep(20 * time.Millisecond) // let the primary reach the queue send
	cancel()
	var primary *Job
	select {
	case s := <-parked:
		if !errors.Is(s.err, context.Canceled) {
			t.Fatalf("canceled submit returned %v, want context.Canceled", s.err)
		}
		primary = s.j
	case <-time.After(2 * time.Second):
		t.Fatal("the parked primary was not released by its context")
	}

	for _, j := range []*Job{primary, follower} {
		select {
		case <-j.Done():
		case <-time.After(2 * time.Second):
			t.Fatalf("%s never reached a terminal state", j.ID())
		}
		_, err := j.Wait()
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "abandoned before reaching the queue") {
			t.Errorf("%s failed with %v, want the wrapped cancellation", j.ID(), err)
		}
		var failed int
		for _, ev := range events.byJob(j.ID()) {
			if ev.Kind == EventFailed {
				failed++
			}
		}
		if failed != 1 {
			t.Errorf("%s emitted %d failed events, want exactly 1", j.ID(), failed)
		}
	}
	if follower.Info().CacheHit {
		t.Error("a follower of an aborted primary still reports a cache hit")
	}

	unpark()
	p.Wait()
	m := p.Metrics()
	if m.Submitted != m.Done+m.Failed {
		t.Errorf("submitted %d != done %d + failed %d at idle", m.Submitted, m.Done, m.Failed)
	}
	if m.Failed != 2 {
		t.Errorf("failed = %d, want the primary and its follower", m.Failed)
	}
	if len(m.TenantsInflight) != 0 {
		t.Errorf("tenant in-flight at idle = %v, want none", m.TenantsInflight)
	}
}
