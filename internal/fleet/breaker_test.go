package fleet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet/api"
	"ioagent/internal/ioagent"
	"ioagent/internal/iosim"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
)

// breakerTrace builds a small distinct trace per seed (mirrors the helper
// in fleet_test.go but kept local so this file stands alone).
func breakerTrace(seed int) *darshan.Log {
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*31 + 5, NProcs: 2, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/breaker/job%02d.ex", seed),
	})
	f := sim.OpenShared(fmt.Sprintf("/scratch/brk-%03d.dat", seed), iosim.POSIX, false, nil)
	for i := int64(0); i < 4; i++ {
		f.WriteAt(0, i*4096, 4096)
	}
	f.Close()
	return sim.Finalize()
}

// downClient always fails transiently — a dead or overloaded backend.
type downClient struct {
	mu    sync.Mutex
	calls int
}

func (d *downClient) Complete(llm.Request) (llm.Response, error) {
	d.mu.Lock()
	d.calls++
	d.mu.Unlock()
	return llm.Response{}, &llm.TransientError{Err: errors.New("backend down")}
}

func (d *downClient) callCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls
}

// TestBreakerUnit drives the breaker state machine directly.
func TestBreakerUnit(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker(3, time.Second, clock)

	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.record(true)
	}
	if open, _ := b.stats(); open {
		t.Fatal("breaker open below threshold")
	}
	if !b.allow() {
		t.Fatal("closed breaker refused the tripping attempt")
	}
	b.record(true) // third consecutive: trips
	if open, trips := b.stats(); !open || trips != 1 {
		t.Fatalf("after threshold failures: open=%v trips=%d, want open once", open, trips)
	}
	if b.allow() {
		t.Fatal("open breaker admitted work inside the cooldown")
	}
	if !b.refusing() {
		t.Fatal("hard-open breaker should refuse new work at the serving layer")
	}

	// Cooldown elapses: exactly one probe gets through — and the serving
	// layer must stop refusing, or no job would ever arrive to probe.
	now = now.Add(2 * time.Second)
	if b.refusing() {
		t.Fatal("elapsed cooldown must re-admit new work (the probe rides on it)")
	}
	if !b.allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.record(true) // probe failed: reopen
	if open, trips := b.stats(); !open || trips != 2 {
		t.Fatalf("failed probe: open=%v trips=%d, want reopened (2 trips)", open, trips)
	}
	if b.allow() {
		t.Fatal("reopened breaker admitted work without a fresh cooldown")
	}
	if !b.refusing() {
		t.Fatal("reopened breaker should refuse new work again")
	}

	// Second probe succeeds: closed again, counters reset.
	now = now.Add(2 * time.Second)
	if !b.allow() {
		t.Fatal("refused second probe")
	}
	b.record(false)
	if open, _ := b.stats(); open {
		t.Fatal("successful probe did not close the breaker")
	}
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatal("closed breaker refusing work after recovery")
		}
		b.record(true)
	}
	if open, _ := b.stats(); open {
		t.Fatal("consecutive counter was not reset by the successful probe")
	}
}

// TestBreakerDisabledByDefault: the zero-value Config must behave exactly
// as before the breaker existed.
func TestBreakerDisabledByDefault(t *testing.T) {
	b := newBreaker(0, 0, time.Now)
	for i := 0; i < 100; i++ {
		if !b.allow() {
			t.Fatal("disabled breaker refused work")
		}
		b.record(true)
	}
	if open, trips := b.stats(); open || trips != 0 {
		t.Fatalf("disabled breaker reports open=%v trips=%d", open, trips)
	}
}

// TestPoolBreakerStopsRetryStorm: with the breaker on, a down backend sees
// a bounded number of calls no matter how many jobs are thrown at it, jobs
// past the trip fail fast with ErrBreakerOpen, and the metrics surface the
// trip.
func TestPoolBreakerStopsRetryStorm(t *testing.T) {
	down := &downClient{}
	pool := New(down, Config{
		Workers: 1, MaxAttempts: 3, RetryDelay: time.Nanosecond,
		BreakerThreshold: 4, BreakerCooldown: time.Hour,
		Agent: ioagent.Options{Index: knowledge.BuildIndex()},
	})
	defer pool.Close()

	const jobs = 12
	var errs []error
	for i := 0; i < jobs; i++ {
		j, err := pool.Submit(breakerTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		_, werr := j.Wait() // serialize: one worker, deterministic order
		errs = append(errs, werr)
	}

	// Every job failed; the later ones failed fast on the open breaker.
	fastFailed := 0
	for i, err := range errs {
		if err == nil {
			t.Fatalf("job %d succeeded against a down backend", i)
		}
		if errors.Is(err, ErrBreakerOpen) {
			fastFailed++
		}
	}
	if fastFailed == 0 {
		t.Fatal("no job failed fast on the open breaker")
	}
	// The backend saw at most threshold calls before the trip; nothing
	// after (cooldown is an hour). Each Diagnose call fans out to several
	// LLM calls internally, so bound loosely: well under what 12 jobs x 3
	// attempts would have produced without a breaker.
	withBreaker := down.callCount()
	if withBreaker == 0 {
		t.Fatal("backend never called")
	}

	m := pool.Metrics()
	if !m.BreakerOpen || m.BreakerTrips != 1 {
		t.Errorf("metrics breaker open=%v trips=%d, want open with 1 trip", m.BreakerOpen, m.BreakerTrips)
	}

	// Control: same storm, breaker off, must hammer the backend much
	// harder (3 attempts per job, every job reaches it).
	control := &downClient{}
	pool2 := New(control, Config{
		Workers: 1, MaxAttempts: 3, RetryDelay: time.Nanosecond,
		Agent: ioagent.Options{Index: knowledge.BuildIndex()},
	})
	defer pool2.Close()
	for i := 0; i < jobs; i++ {
		j, err := pool2.Submit(breakerTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
	}
	if control.callCount() <= withBreaker {
		t.Errorf("breaker saved nothing: %d calls with, %d without", withBreaker, control.callCount())
	}
}

// TestPoolBreakerRecovers: after the cooldown, a healed backend closes the
// breaker and jobs succeed again.
func TestPoolBreakerRecovers(t *testing.T) {
	flaky := &healingClient{failFirst: 20, healthy: llm.NewSim()}
	pool := New(flaky, Config{
		Workers: 1, MaxAttempts: 1, RetryDelay: time.Nanosecond,
		BreakerThreshold: 2, BreakerCooldown: 10 * time.Millisecond,
		Agent: ioagent.Options{Index: knowledge.BuildIndex()},
	})
	defer pool.Close()

	// Trip it.
	for i := 0; i < 4; i++ {
		j, err := pool.Submit(breakerTrace(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
	}
	if m := pool.Metrics(); !m.BreakerOpen {
		t.Fatal("breaker did not trip")
	}

	// Heal the backend, wait out the cooldown, and retry until the probe
	// path closes the breaker.
	flaky.heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the backend healed")
		}
		time.Sleep(15 * time.Millisecond)
		j, err := pool.Submit(breakerTrace(200))
		if err != nil {
			t.Fatal(err)
		}
		if _, werr := j.Wait(); werr == nil {
			break
		}
	}
	if m := pool.Metrics(); m.BreakerOpen {
		t.Error("breaker still open after a successful probe")
	}
}

// healingClient fails transiently until heal() is called, then delegates
// to a healthy backend.
type healingClient struct {
	mu        sync.Mutex
	failFirst int
	healed    bool
	healthy   llm.Client
}

func (h *healingClient) heal() {
	h.mu.Lock()
	h.healed = true
	h.mu.Unlock()
}

func (h *healingClient) Complete(req llm.Request) (llm.Response, error) {
	h.mu.Lock()
	healed := h.healed
	h.mu.Unlock()
	if !healed {
		return llm.Response{}, &llm.TransientError{Err: errors.New("still down")}
	}
	return h.healthy.Complete(req)
}

// TestMetricsTenantCounts: per-tenant counters accumulate, anonymous
// submissions are not labeled, and the label cap overflows into _other.
func TestMetricsTenantCounts(t *testing.T) {
	pool := New(llm.NewSim(), Config{
		Workers: 2,
		Agent:   ioagent.Options{Index: knowledge.BuildIndex()},
	})
	defer pool.Close()

	log := breakerTrace(7)
	for i := 0; i < 3; i++ {
		if _, err := pool.SubmitWith(log, SubmitOpts{Tenant: "acme"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pool.SubmitWith(log, SubmitOpts{Tenant: "globex"}); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Submit(log); err != nil { // anonymous
		t.Fatal(err)
	}
	pool.Wait()

	m := pool.Metrics()
	if m.Tenants["acme"] != 3 || m.Tenants["globex"] != 1 {
		t.Errorf("tenant counts = %v, want acme:3 globex:1", m.Tenants)
	}
	if _, ok := m.Tenants[""]; ok {
		t.Error("anonymous submissions must not appear as a tenant label")
	}
	if got := int64(len(m.Tenants)); m.Submitted != 5 || got != 2 {
		t.Errorf("submitted=%d labels=%d, want 5 submissions over 2 labels", m.Submitted, got)
	}
}

// TestMetricsTenantLabelCap: the 257th distinct tenant lands in _other.
func TestMetricsTenantLabelCap(t *testing.T) {
	var m metrics
	m.queuedByLane = map[Lane]int64{}
	for i := 0; i < api.MaxTenantLabels+10; i++ {
		m.mu.Lock()
		m.countTenantLocked(fmt.Sprintf("tenant-%04d", i))
		m.mu.Unlock()
	}
	s := m.snapshot(1, 0)
	if len(s.Tenants) != api.MaxTenantLabels+1 {
		t.Fatalf("tracked %d labels, want %d + overflow", len(s.Tenants), api.MaxTenantLabels)
	}
	if s.Tenants[api.TenantOverflow] != 10 {
		t.Errorf("overflow bucket = %d, want 10", s.Tenants[api.TenantOverflow])
	}
}
