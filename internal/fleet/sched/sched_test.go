package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ioagent/internal/fleet/api"
)

const (
	laneI = "interactive"
	laneB = "batch"
)

func newTest(t *testing.T, cfg Config) *Scheduler[int] {
	t.Helper()
	if cfg.Lanes == nil {
		cfg.Lanes = []string{laneI, laneB}
	}
	if cfg.Depth == 0 {
		cfg.Depth = 1024
	}
	return New[int](cfg)
}

func mustEnqueue(t *testing.T, s *Scheduler[int], lane, tenant string, v int) {
	t.Helper()
	if err := s.Enqueue(context.Background(), lane, tenant, v); err != nil {
		t.Fatalf("Enqueue(%s, %s, %d): %v", lane, tenant, v, err)
	}
}

// drain dequeues n items and returns them in order.
func drain(t *testing.T, s *Scheduler[int], n int) []int {
	t.Helper()
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		v, ok := s.Dequeue()
		if !ok {
			t.Fatalf("Dequeue %d/%d: scheduler closed early", i+1, n)
		}
		out = append(out, v)
	}
	return out
}

func TestSchedFIFOPreservesArrivalOrder(t *testing.T) {
	s := newTest(t, Config{FIFO: true, AltShare: -1})
	for i := 0; i < 20; i++ {
		mustEnqueue(t, s, laneI, fmt.Sprintf("t%d", i%3), i)
	}
	got := drain(t, s, 20)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO order broken at %d: got %v", i, got)
		}
	}
}

// TestSchedDRRWeightedShares floods three tenants with known weights
// and checks the realized dequeue shares track the configured ratios.
func TestSchedDRRWeightedShares(t *testing.T) {
	s := newTest(t, Config{
		AltShare: -1,
		Weights:  map[string]int{"heavy": 6, "mid": 3, "light": 1},
	})
	const perTenant = 200
	// Tag items by tenant: heavy=0, mid=1, light=2.
	for i := 0; i < perTenant; i++ {
		mustEnqueue(t, s, laneI, "heavy", 0)
		mustEnqueue(t, s, laneI, "mid", 1)
		mustEnqueue(t, s, laneI, "light", 2)
	}
	// Sample only while every tenant is still backlogged: heavy runs
	// dry first (200 items at share 0.6 ≈ 333 dequeues), so stop at 300.
	counts := [3]int{}
	const sample = 300
	for i := 0; i < sample; i++ {
		v, ok := s.Dequeue()
		if !ok {
			t.Fatal("closed early")
		}
		counts[v]++
	}
	total := counts[0] + counts[1] + counts[2]
	wantShare := [3]float64{0.6, 0.3, 0.1}
	for i, c := range counts {
		share := float64(c) / float64(total)
		if diff := share - wantShare[i]; diff > 0.05 || diff < -0.05 {
			t.Fatalf("tenant %d share %.3f, want %.3f ±0.05 (counts %v)", i, share, wantShare[i], counts)
		}
	}
}

// TestSchedLightTenantNotCrowdedOut is the DRR point: a light tenant's
// item must be served within roughly one ring round even when a noisy
// tenant queued hundreds of items first.
func TestSchedLightTenantNotCrowdedOut(t *testing.T) {
	s := newTest(t, Config{AltShare: -1, Weights: map[string]int{"noisy": 4, "light": 4}})
	for i := 0; i < 500; i++ {
		mustEnqueue(t, s, laneI, "noisy", 0)
	}
	mustEnqueue(t, s, laneI, "light", 1)
	got := drain(t, s, 10)
	pos := -1
	for i, v := range got {
		if v == 1 {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 8 {
		t.Fatalf("light tenant served at position %d of %v; want within one DRR round", pos, got)
	}
}

// TestSchedAltShareGivesBatchItsSlice checks the cross-lane layer:
// with AltShare=4 and both lanes backlogged, batch gets ~1/4 of
// dequeues even though interactive is preferred.
func TestSchedAltShareGivesBatchItsSlice(t *testing.T) {
	s := newTest(t, Config{AltShare: 4})
	for i := 0; i < 400; i++ {
		mustEnqueue(t, s, laneI, "a", 0)
		mustEnqueue(t, s, laneB, "a", 1)
	}
	batch := 0
	for i := 0; i < 400; i++ {
		v, ok := s.Dequeue()
		if !ok {
			t.Fatal("closed early")
		}
		if v == 1 {
			batch++
		}
	}
	if batch < 90 || batch > 110 {
		t.Fatalf("batch got %d/400 dequeues, want ~100 (AltShare=4)", batch)
	}
}

// TestSchedStrictPriority: with AltShare<=0 batch runs only while
// interactive is empty.
func TestSchedStrictPriority(t *testing.T) {
	s := newTest(t, Config{AltShare: -1})
	for i := 0; i < 50; i++ {
		mustEnqueue(t, s, laneB, "a", 1)
	}
	for i := 0; i < 50; i++ {
		mustEnqueue(t, s, laneI, "a", 0)
	}
	got := drain(t, s, 100)
	for i := 0; i < 50; i++ {
		if got[i] != 0 {
			t.Fatalf("batch served at position %d under strict priority", i)
		}
	}
}

func TestSchedBackpressureBlocksUntilDequeue(t *testing.T) {
	s := newTest(t, Config{Depth: 2, AltShare: -1})
	mustEnqueue(t, s, laneI, "a", 0)
	mustEnqueue(t, s, laneI, "a", 1)
	done := make(chan error, 1)
	go func() {
		done <- s.Enqueue(context.Background(), laneI, "a", 2)
	}()
	select {
	case err := <-done:
		t.Fatalf("Enqueue returned %v before a slot freed", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, ok := s.Dequeue(); !ok {
		t.Fatal("Dequeue failed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Enqueue after slot freed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Enqueue still blocked after a slot freed")
	}
}

// TestSchedCancelWhileQueuedLeaksNoTenantState is the regression test
// for SubmitContext cancellation: an Enqueue aborted by its context
// while waiting out backpressure must leave per-tenant depth and age
// state exactly as it found them — the canceled item was never
// admitted, so nothing may leak.
func TestSchedCancelWhileQueuedLeaksNoTenantState(t *testing.T) {
	s := newTest(t, Config{Depth: 1, AltShare: -1})
	mustEnqueue(t, s, laneI, "victim", 0)

	before := s.Metrics()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Enqueue(ctx, laneI, "canceler", 1) }()
	time.Sleep(20 * time.Millisecond) // let the goroutine park on the full lane
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Enqueue returned %v, want context.Canceled", err)
	}

	after := s.Metrics()
	if _, leaked := after.Tenants["canceler"]; leaked {
		t.Fatalf("canceled tenant leaked scheduler state: %+v", after.Tenants["canceler"])
	}
	if after.Lanes[laneI] != before.Lanes[laneI] {
		t.Fatalf("lane depth changed %d -> %d across a canceled enqueue", before.Lanes[laneI], after.Lanes[laneI])
	}
	// The freed capacity must still be there: the victim dequeues and a
	// fresh enqueue succeeds immediately.
	if _, ok := s.Dequeue(); !ok {
		t.Fatal("Dequeue failed")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := s.Enqueue(ctx2, laneI, "fresh", 2); err != nil {
		t.Fatalf("slot leaked by canceled enqueue: %v", err)
	}
	m := s.Metrics()
	if d := m.Tenants["victim"].Depth; d != 0 {
		t.Fatalf("victim depth %d after dequeue, want 0", d)
	}
	if d := m.Tenants["fresh"].Depth; d != 1 {
		t.Fatalf("fresh depth %d, want 1", d)
	}
}

func TestSchedCloseDrainsThenStops(t *testing.T) {
	s := newTest(t, Config{AltShare: -1})
	for i := 0; i < 5; i++ {
		mustEnqueue(t, s, laneI, "a", i)
	}
	s.Close()
	if err := s.Enqueue(context.Background(), laneI, "a", 99); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enqueue after Close: %v, want ErrClosed", err)
	}
	got := drain(t, s, 5)
	for i, v := range got {
		if v != i {
			t.Fatalf("drain order %v", got)
		}
	}
	if _, ok := s.Dequeue(); ok {
		t.Fatal("Dequeue returned ok=true on a closed, drained scheduler")
	}
}

func TestSchedCloseWakesBlockedWorkers(t *testing.T) {
	s := newTest(t, Config{AltShare: -1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := s.Dequeue(); !ok {
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	s.Close()
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("workers still blocked after Close")
	}
}

// TestSchedAdmissionRejectsStaleBacklog covers admission rule (a): the
// tenant's oldest queued item already exceeds the class target.
func TestSchedAdmissionRejectsStaleBacklog(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	s := newTest(t, Config{
		AltShare:  -1,
		Admission: true,
		Classes:   map[string]string{"gold-t": "gold"},
		Now:       now,
	})
	if err := s.Admit(laneI, "gold-t"); err != nil {
		t.Fatalf("empty-queue admit rejected: %v", err)
	}
	mustEnqueue(t, s, laneI, "gold-t", 0)
	clock = clock.Add(3 * time.Second) // gold target is 2s
	if err := s.Admit(laneI, "gold-t"); !errors.Is(err, ErrSLOExceeded) {
		t.Fatalf("stale backlog admitted: %v", err)
	}
	m := s.Metrics()
	if m.Rejects != 1 || m.Tenants["gold-t"].Rejects != 1 {
		t.Fatalf("reject counters %d/%d, want 1/1", m.Rejects, m.Tenants["gold-t"].Rejects)
	}
	// Tenants without a class are never rejected.
	if err := s.Admit(laneI, "anon-t"); err != nil {
		t.Fatalf("classless tenant rejected: %v", err)
	}
}

// TestSchedAdmissionRejectsProjectedAge covers admission rule (b): a
// slow measured drain rate projects the new item past the target.
func TestSchedAdmissionRejectsProjectedAge(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	s := newTest(t, Config{
		AltShare:  -1,
		Admission: true,
		Classes:   map[string]string{"gold-t": "gold"},
		Now:       now,
	})
	// Teach the lane a 1s-per-item drain rate: dequeues 1s apart while
	// the lane stays backlogged.
	for i := 0; i < 8; i++ {
		mustEnqueue(t, s, laneI, "filler", i)
	}
	for i := 0; i < 6; i++ {
		clock = clock.Add(time.Second)
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("drain")
		}
	}
	// gold target 2s; with the filler active (weight 1) and gold weight
	// 8, a gold item projects to ~(0+1)*1s*(9/8) ≈ 1.1s — admitted.
	if err := s.Admit(laneI, "gold-t"); err != nil {
		t.Fatalf("gold with empty backlog rejected: %v", err)
	}
	// Give gold a backlog of 3: projected (3+1)*1s*9/8 = 4.5s > 2s.
	for i := 0; i < 3; i++ {
		mustEnqueue(t, s, laneI, "gold-t", i)
	}
	if err := s.Admit(laneI, "gold-t"); !errors.Is(err, ErrSLOExceeded) {
		t.Fatalf("over-projection admitted: %v", err)
	}
}

func TestSchedSetTenantClass(t *testing.T) {
	s := newTest(t, Config{AltShare: -1})
	if err := s.SetTenantClass("t1", "no-such-class"); err == nil {
		t.Fatal("unknown class accepted")
	}
	if err := s.SetTenantClass("t1", "gold"); err != nil {
		t.Fatal(err)
	}
	if got := s.TenantClasses()["t1"]; got != "gold" {
		t.Fatalf("class %q, want gold", got)
	}
	mustEnqueue(t, s, laneI, "t1", 0)
	if w := s.Metrics().Tenants["t1"].Weight; w != 8 {
		t.Fatalf("gold weight %d, want 8", w)
	}
	if err := s.SetTenantClass("t1", ""); err != nil {
		t.Fatal(err)
	}
	if _, still := s.TenantClasses()["t1"]; still {
		t.Fatal("clearing the class did not remove the assignment")
	}
}

// TestSchedTenantLabelCap: tenants beyond api.MaxTenantLabels aggregate
// under api.TenantOverflow instead of growing the map without bound.
func TestSchedTenantLabelCap(t *testing.T) {
	s := newTest(t, Config{AltShare: -1, Depth: 2 * api.MaxTenantLabels})
	for i := 0; i < api.MaxTenantLabels+10; i++ {
		mustEnqueue(t, s, laneI, fmt.Sprintf("tenant-%04d", i), i)
	}
	m := s.Metrics()
	if len(m.Tenants) > api.MaxTenantLabels+1 {
		t.Fatalf("tenant label map grew to %d, cap is %d+overflow", len(m.Tenants), api.MaxTenantLabels)
	}
	if d := m.Tenants[api.TenantOverflow].Depth; d != 10 {
		t.Fatalf("overflow depth %d, want 10", d)
	}
}

// TestSchedAgePercentiles sanity-checks the queue-age accounting with
// an injected clock.
func TestSchedAgePercentiles(t *testing.T) {
	clock := time.Unix(0, 0)
	s := newTest(t, Config{AltShare: -1, Now: func() time.Time { return clock }})
	mustEnqueue(t, s, laneI, "t", 0)
	clock = clock.Add(100 * time.Millisecond)
	mustEnqueue(t, s, laneI, "t", 1)
	clock = clock.Add(400 * time.Millisecond)
	drain(t, s, 2)
	m := s.Metrics().Tenants["t"]
	if m.AgeMax != 500*time.Millisecond {
		t.Fatalf("age max %v, want 500ms", m.AgeMax)
	}
	if m.AgeP50 != 400*time.Millisecond {
		t.Fatalf("age p50 %v, want 400ms", m.AgeP50)
	}
	if m.Dequeues != 2 || m.Depth != 0 {
		t.Fatalf("dequeues=%d depth=%d, want 2/0", m.Dequeues, m.Depth)
	}
}

// TestSchedConcurrentChurn hammers the scheduler from many producers
// and consumers to give the race detector a workout.
func TestSchedConcurrentChurn(t *testing.T) {
	s := newTest(t, Config{Depth: 64, AltShare: 4})
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lane := laneI
			if p%2 == 1 {
				lane = laneB
			}
			tenant := fmt.Sprintf("t%d", p%4)
			for i := 0; i < perProducer; i++ {
				if err := s.Enqueue(context.Background(), lane, tenant, i); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	var got int64
	var cwg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				if _, ok := s.Dequeue(); !ok {
					return
				}
				mu.Lock()
				got++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.Close()
	cwg.Wait()
	if got != producers*perProducer {
		t.Fatalf("dequeued %d, want %d", got, producers*perProducer)
	}
	m := s.Metrics()
	for tenant, tm := range m.Tenants {
		if tm.Depth != 0 {
			t.Fatalf("tenant %s depth %d after full drain", tenant, tm.Depth)
		}
	}
}
