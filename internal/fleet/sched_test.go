package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ioagent/internal/llm"
)

// TestSchedTenantFairnessUnderFlood drives the pool-level DRR: a noisy
// tenant floods the interactive lane, then a light tenant submits one
// job; the light job must be dequeued within one DRR round, not behind
// the flood.
func TestSchedTenantFairnessUnderFlood(t *testing.T) {
	gate := &gatedClient{inner: llm.NewSim(), gate: make(chan struct{}), started: make(chan struct{})}
	rec := &laneRecorder{}
	cfg := testConfig(1)
	cfg.QueueDepth = 64
	cfg.BatchShare = -1
	cfg.OnJobEvent = rec.hook
	p := New(gate, cfg)
	defer p.Close()

	// Pin the worker, then flood 16 noisy jobs and 1 light job.
	if _, err := submitOpts(p, testTrace(9000), SubmitOpts{Tenant: "noisy"}); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	for i := 0; i < 16; i++ {
		if _, err := submitOpts(p, testTrace(9001+i), SubmitOpts{Tenant: "noisy"}); err != nil {
			t.Fatal(err)
		}
	}
	jl, err := submitOpts(p, testTrace(9100), SubmitOpts{Tenant: "light"})
	if err != nil {
		t.Fatal(err)
	}
	close(gate.gate)
	if _, err := jl.Wait(); err != nil {
		t.Fatal(err)
	}
	p.Wait()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	lightPos := -1
	for i, ev := range rec.done {
		if ev.Job.Tenant == "light" {
			lightPos = i
			break
		}
	}
	// Position 0 is the pinned job; equal weights mean the light job is
	// served within ~2 more dequeues, never behind the 16-deep flood.
	if lightPos < 0 || lightPos > 3 {
		t.Fatalf("light tenant's job completed at position %d of %d; DRR must not let the flood crowd it out",
			lightPos, len(rec.done))
	}

	m := p.Metrics()
	if m.Sched == nil {
		t.Fatal("Metrics.Sched is nil")
	}
	if m.Sched.Tenants["light"].Dequeues != 1 {
		t.Fatalf("light dequeues = %d, want 1", m.Sched.Tenants["light"].Dequeues)
	}
	if got := m.Sched.Tenants["noisy"].Dequeues; got != 17 {
		t.Fatalf("noisy dequeues = %d, want 17", got)
	}
}

// TestSchedCancelWhileQueuedNoTenantLeak is the pool-level face of the
// sched regression test: a SubmitPreparsed canceled while waiting out
// backpressure must not leak per-tenant depth/age state in the
// scheduler snapshot, and must keep the pool's own lane counters exact.
func TestSchedCancelWhileQueuedNoTenantLeak(t *testing.T) {
	gate := &gatedClient{inner: llm.NewSim(), gate: make(chan struct{}), started: make(chan struct{})}
	cfg := testConfig(1)
	cfg.QueueDepth = 1
	cfg.BatchShare = -1
	p := New(gate, cfg)
	defer p.Close()

	if _, err := submitOpts(p, testTrace(9200), SubmitOpts{Tenant: "t1"}); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	if _, err := submitOpts(p, testTrace(9201), SubmitOpts{Tenant: "t1"}); err != nil {
		t.Fatal(err) // fills the lane to QueueDepth=1
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var subErr error
	go func() {
		defer wg.Done()
		_, subErr = p.SubmitPreparsed(ctx, Preparsed{Log: testTrace(9202)}, SubmitOpts{Tenant: "t2"})
	}()
	time.Sleep(30 * time.Millisecond) // let the submission park on the full lane
	cancel()
	wg.Wait()
	if !errors.Is(subErr, context.Canceled) {
		t.Fatalf("canceled SubmitPreparsed returned %v, want context.Canceled", subErr)
	}

	m := p.Metrics()
	if tm, leaked := m.Sched.Tenants["t2"]; leaked && tm.Depth != 0 {
		t.Fatalf("canceled tenant leaked scheduler depth: %+v", tm)
	}
	if m.QueuedInteractive != 1 {
		t.Fatalf("pool queued = %d after cancel, want 1 (the legitimately queued job)", m.QueuedInteractive)
	}

	close(gate.gate)
	p.Wait()
	m = p.Metrics()
	if m.Sched.Tenants["t1"].Depth != 0 {
		t.Fatalf("t1 depth %d after drain, want 0", m.Sched.Tenants["t1"].Depth)
	}
	if m.Failed != 1 {
		t.Fatalf("failed = %d, want 1 (the aborted submission)", m.Failed)
	}
}

// TestSchedSLOAdmissionRefusesRetryably drives admission control end to
// end through the pool: a gold tenant whose backlog is provably stale
// is refused with ErrSLOExceeded before any job state is created.
func TestSchedSLOAdmissionRefusesRetryably(t *testing.T) {
	clock := struct {
		mu sync.Mutex
		t  time.Time
	}{t: time.Unix(5000, 0)}
	now := func() time.Time {
		clock.mu.Lock()
		defer clock.mu.Unlock()
		return clock.t
	}
	advance := func(d time.Duration) {
		clock.mu.Lock()
		clock.t = clock.t.Add(d)
		clock.mu.Unlock()
	}

	gate := &gatedClient{inner: llm.NewSim(), gate: make(chan struct{}), started: make(chan struct{})}
	cfg := testConfig(1)
	cfg.QueueDepth = 8
	cfg.BatchShare = -1
	cfg.SLOAdmission = true
	cfg.TenantClasses = map[string]string{"vip": "gold"}
	cfg.now = now
	p := New(gate, cfg)
	defer func() { close(gate.gate); p.Close() }()

	// Pin the worker, then queue one vip job and age it past gold's 2s
	// target.
	if _, err := submitOpts(p, testTrace(9300), SubmitOpts{Tenant: "vip"}); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	if _, err := submitOpts(p, testTrace(9301), SubmitOpts{Tenant: "vip"}); err != nil {
		t.Fatal(err)
	}
	advance(3 * time.Second)

	before := p.Metrics().Submitted
	_, err := submitOpts(p, testTrace(9302), SubmitOpts{Tenant: "vip"})
	if !errors.Is(err, ErrSLOExceeded) {
		t.Fatalf("stale-backlog submission returned %v, want ErrSLOExceeded", err)
	}
	m := p.Metrics()
	if m.Submitted != before {
		t.Fatal("rejected submission still counted as submitted")
	}
	if m.Sched.Rejects != 1 || m.Sched.Tenants["vip"].Rejects != 1 {
		t.Fatalf("sched rejects %d/%d, want 1/1", m.Sched.Rejects, m.Sched.Tenants["vip"].Rejects)
	}
	// A classless tenant is never refused.
	if _, err := submitOpts(p, testTrace(9303), SubmitOpts{Tenant: "steerage"}); err != nil {
		t.Fatalf("classless tenant refused: %v", err)
	}
}
