// Package sched is the fleet's per-tenant fair scheduler: per-lane,
// per-tenant FIFO queues drained by weighted deficit-round-robin, with
// optional SLO-class admission control.
//
// The scheduler replaces the one-channel-per-lane queues that fleet.Pool
// grew up with. A channel is FIFO across tenants, so inside one priority
// lane a single backlogged tenant — even one under its in-flight quota —
// owns the head of the line and every other tenant's queue age inherits
// its backlog. Here each tenant gets its own FIFO inside the lane, and a
// deficit-round-robin pass across the active tenants decides whose head
// runs next: every visit to a backlogged tenant credits its deficit
// counter with the tenant's weight, each dequeue spends one credit, and
// a tenant whose credit is spent yields to the next tenant in the ring.
// Over any busy interval a tenant's share of dequeues converges to
// weight_t / Σ weight_active regardless of how deep anyone's backlog is;
// a light tenant's queue age is bounded by one round of the ring, not by
// the noisy tenant's backlog.
//
// The external contract mirrors the channels it replaces:
//
//   - Enqueue blocks while the lane is at capacity (backpressure) and
//     aborts with ctx.Err() if the context is done first — the
//     fleet.SubmitPreparsed contract. A canceled Enqueue leaves no trace: the
//     item was never admitted, so per-tenant depth and age state are
//     untouched.
//   - Dequeue blocks until an item is available; after Close it drains
//     the remaining items and then reports ok=false, which is how pool
//     workers learn to exit.
//   - Cross-lane weighting is layered above the per-tenant DRR: every
//     AltShare-th pick prefers the second lane (fleet.Config.BatchShare
//     semantics), so batch keeps its guaranteed slice of worker dequeues
//     and fairness *within* each lane composes with priority *between*
//     lanes.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("sched: scheduler is closed")

// ErrSLOExceeded is returned by Admit when a tenant's projected queue
// age exceeds its SLO class target. The submission was refused before
// any state was created; retrying later — once the tenant's backlog
// drains — is safe.
var ErrSLOExceeded = errors.New("sched: projected queue age exceeds the tenant's SLO class target")

// Config tunes a Scheduler.
type Config struct {
	// Lanes lists the lane names in dequeue-preference order; the first
	// lane is preferred except for the AltShare carve-out below. At
	// least one lane is required.
	Lanes []string
	// Depth bounds each lane's queued items; a full lane blocks Enqueue
	// (backpressure). Must be positive.
	Depth int
	// AltShare gives the second lane a guaranteed slice of dequeues:
	// when positive, every AltShare-th pick prefers Lanes[1] over
	// Lanes[0]. Zero or negative means strict preference order (the
	// second lane runs only while the first is empty). Ignored with
	// fewer than two lanes.
	AltShare int
	// Weights maps tenant to an explicit DRR weight, overriding the
	// tenant's class weight. Weights below 1 are clamped to 1.
	Weights map[string]int
	// Classes maps tenant to an SLO class name (resolved against
	// ClassDefs). Assignments can also change at runtime via
	// SetTenantClass.
	Classes map[string]string
	// ClassDefs defines the available SLO classes; nil means
	// BuiltinClasses (gold/silver/bronze).
	ClassDefs map[string]Class
	// DefaultWeight is the weight of tenants with neither an explicit
	// weight nor a class (default 1).
	DefaultWeight int
	// Admission enables SLO admission control: Admit rejects a
	// submission with ErrSLOExceeded when the tenant's projected queue
	// age exceeds its class target. Tenants without a class (or with a
	// zero MaxQueueAge) are never rejected.
	Admission bool
	// Now is the clock (default time.Now); injectable for tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = 32
	}
	if c.DefaultWeight <= 0 {
		c.DefaultWeight = 1
	}
	if c.ClassDefs == nil {
		c.ClassDefs = BuiltinClasses()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// entry is one queued item.
type entry[T any] struct {
	v      T
	tenant string
	at     time.Time
}

// tenantQueue is one tenant's FIFO inside a lane plus its DRR deficit.
type tenantQueue[T any] struct {
	items   []entry[T]
	deficit int
}

// lane is one priority lane: a map of per-tenant queues, the ring of
// tenants with backlog, and the DRR cursor into it.
type lane[T any] struct {
	name  string
	byTen map[string]*tenantQueue[T]
	ring  []string // tenants with a non-empty queue, visit order
	idx   int      // ring cursor
	// credited marks that ring[idx] received its quantum for the
	// current visit; cleared whenever the cursor moves.
	credited bool
	count    int
	// Drain-rate estimate for admission control: an EWMA of the
	// interval between consecutive dequeues while the lane stayed
	// backlogged. idle poisons the interval, so a dequeue that empties
	// the lane suspends the estimate until the next one.
	lastDeq   time.Time
	wasIdle   bool
	drainEWMA time.Duration
}

// Scheduler is a per-lane, per-tenant fair queue. All methods are safe
// for concurrent use.
type Scheduler[T any] struct {
	cfg Config

	// slots is the per-lane backpressure semaphore: Enqueue acquires a
	// token (blocking, context-bounded) before touching scheduler
	// state, Dequeue releases one per removed item. Tokens ≥ queued
	// items always, so the release never blocks.
	slots map[string]chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond // signaled on enqueue and Close
	closed  bool
	lanes   map[string]*lane[T]
	order   []string          // cfg.Lanes, for preference iteration
	classes map[string]string // tenant -> class name (runtime-mutable)
	picks   int64             // cross-lane AltShare counter

	stats schedStats
}

// New builds a scheduler. It panics on an empty lane list — the lane
// set is a compile-time property of the pool, not operator input.
func New[T any](cfg Config) *Scheduler[T] {
	cfg = cfg.withDefaults()
	if len(cfg.Lanes) == 0 {
		panic("sched: at least one lane is required")
	}
	s := &Scheduler[T]{
		cfg:     cfg,
		slots:   make(map[string]chan struct{}, len(cfg.Lanes)),
		lanes:   make(map[string]*lane[T], len(cfg.Lanes)),
		order:   append([]string(nil), cfg.Lanes...),
		classes: make(map[string]string, len(cfg.Classes)),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, name := range cfg.Lanes {
		if _, dup := s.lanes[name]; dup {
			panic(fmt.Sprintf("sched: duplicate lane %q", name))
		}
		s.lanes[name] = &lane[T]{name: name, byTen: make(map[string]*tenantQueue[T])}
		s.slots[name] = make(chan struct{}, cfg.Depth)
	}
	for tenant, class := range cfg.Classes {
		if _, ok := cfg.ClassDefs[class]; !ok {
			panic(fmt.Sprintf("sched: tenant %q assigned unknown class %q", tenant, class))
		}
		s.classes[tenant] = class
	}
	return s
}

// Enqueue admits one item to the named lane, blocking while the lane is
// at Depth (backpressure). If ctx is done before a slot frees, the item
// is not admitted and ctx.Err() is returned — no depth, age, or ring
// state is created for it. Admission control is NOT applied here; call
// Admit first if it should be.
func (s *Scheduler[T]) Enqueue(ctx context.Context, laneName, tenant string, v T) error {
	slots, ok := s.slots[laneName]
	if !ok {
		return fmt.Errorf("sched: unknown lane %q", laneName)
	}
	select {
	case slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	if s.closed {
		<-slots
		s.mu.Unlock()
		return ErrClosed
	}
	ln := s.lanes[laneName]
	tq := ln.byTen[tenant]
	if tq == nil {
		tq = &tenantQueue[T]{}
		ln.byTen[tenant] = tq
	}
	if len(tq.items) == 0 {
		ln.ring = append(ln.ring, tenant)
	}
	tq.items = append(tq.items, entry[T]{v: v, tenant: tenant, at: s.cfg.Now()})
	ln.count++
	s.stats.hold(tenant)
	s.mu.Unlock()
	s.cond.Signal()
	return nil
}

// Dequeue returns the next item under the cross-lane preference and the
// per-tenant DRR, blocking while every lane is empty. ok=false means
// the scheduler is closed and fully drained — the worker-exit signal.
func (s *Scheduler[T]) Dequeue() (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if e, ln, ok := s.pickLocked(); ok {
			<-s.slots[ln.name] // free the backpressure slot (never blocks)
			now := s.cfg.Now()
			ln.observeDequeue(now)
			s.stats.dequeued(e.tenant, now.Sub(e.at))
			return e.v, true
		}
		if s.closed {
			var zero T
			return zero, false
		}
		s.cond.Wait()
	}
}

// pickLocked chooses the lane (preference order, with the AltShare
// carve-out for the second lane) and takes that lane's next item. The
// pick counter advances only when an item is actually returned, so the
// every-AltShare-th cadence counts worker dequeues, not idle polls.
// Caller holds s.mu.
func (s *Scheduler[T]) pickLocked() (entry[T], *lane[T], bool) {
	pref := 0
	if len(s.order) > 1 && s.cfg.AltShare > 0 && (s.picks+1)%int64(s.cfg.AltShare) == 0 {
		pref = 1
	}
	if ln := s.lanes[s.order[pref]]; ln.count > 0 {
		s.picks++
		return ln.next(s.weightOfLocked), ln, true
	}
	for i, name := range s.order {
		if i == pref {
			continue
		}
		if ln := s.lanes[name]; ln.count > 0 {
			s.picks++
			return ln.next(s.weightOfLocked), ln, true
		}
	}
	var zero entry[T]
	return zero, nil, false
}

// next removes and returns the lane's next item; the caller guarantees
// count > 0. The DRR pass walks the active-tenant ring, crediting each
// visited tenant's deficit with its weight and spending one credit per
// dequeue, so a tenant yields the cursor after weight consecutive items
// (or sooner, when its queue empties — leftover credit is forfeited,
// never banked).
func (ln *lane[T]) next(weightOf func(string) int) entry[T] {
	ln.count--
	for {
		if ln.idx >= len(ln.ring) {
			ln.idx = 0
		}
		tenant := ln.ring[ln.idx]
		tq := ln.byTen[tenant]
		if !ln.credited {
			tq.deficit += weightOf(tenant)
			ln.credited = true
		}
		if tq.deficit < 1 { // cannot happen with weights ≥ 1; defensive
			ln.advance()
			continue
		}
		e := tq.items[0]
		tq.items = tq.items[1:]
		tq.deficit--
		if len(tq.items) == 0 {
			// Drained: leave the ring and forfeit leftover credit, so an
			// empty queue cannot bank deficit for a later burst.
			delete(ln.byTen, tenant)
			ln.ring = append(ln.ring[:ln.idx], ln.ring[ln.idx+1:]...)
			ln.credited = false
			if ln.idx >= len(ln.ring) {
				ln.idx = 0
			}
		} else if tq.deficit == 0 {
			ln.advance()
		}
		return e
	}
}

// advance moves the DRR cursor to the next active tenant.
func (ln *lane[T]) advance() {
	ln.credited = false
	ln.idx++
	if ln.idx >= len(ln.ring) {
		ln.idx = 0
	}
}

// observeDequeue feeds the lane's drain-rate EWMA. Intervals that span
// an idle lane are skipped — they measure traffic gaps, not service
// time, and would make admission control wildly pessimistic after
// every quiet spell.
func (ln *lane[T]) observeDequeue(now time.Time) {
	if !ln.lastDeq.IsZero() && !ln.wasIdle {
		dt := now.Sub(ln.lastDeq)
		if dt >= 0 {
			if ln.drainEWMA == 0 {
				ln.drainEWMA = dt
			} else {
				ln.drainEWMA = (3*ln.drainEWMA + dt) / 4
			}
		}
	}
	ln.lastDeq = now
	ln.wasIdle = ln.count == 0
}

// Admit decides whether a submission from tenant on the named lane may
// enter, per the tenant's SLO class target. It returns nil when
// admission control is off or the tenant has no age target; otherwise
// it rejects with ErrSLOExceeded when either (a) the tenant's oldest
// queued item in the lane already exceeds the target — the queue is
// provably rotting — or (b) the projected age of the new item,
// estimated from the lane's drain rate and the tenant's fair share of
// it, exceeds the target. The estimate is advisory: it cannot see
// future arrivals, so admission bounds expected queue age, it does not
// guarantee it.
func (s *Scheduler[T]) Admit(laneName, tenant string) error {
	if !s.cfg.Admission {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cls, ok := s.classDefLocked(tenant)
	if !ok || cls.MaxQueueAge <= 0 {
		return nil
	}
	ln := s.lanes[laneName]
	if ln == nil {
		return nil
	}
	backlog := 0
	if tq := ln.byTen[tenant]; tq != nil {
		backlog = len(tq.items)
		if oldest := tq.items[0].at; s.cfg.Now().Sub(oldest) > cls.MaxQueueAge {
			s.stats.rejected(tenant)
			return fmt.Errorf("%w: tenant %q oldest queued job is %v old (target %v)",
				ErrSLOExceeded, tenant, s.cfg.Now().Sub(oldest).Round(time.Millisecond), cls.MaxQueueAge)
		}
	}
	if ln.drainEWMA <= 0 {
		return nil // no drain history yet; admit and let the queue teach us
	}
	// The tenant's fair drain rate is the lane's rate scaled by its
	// share of the active weight; a new item waits for the tenant's own
	// backlog (plus itself) at that rate.
	w := s.weightOfLocked(tenant)
	totalW := w
	for _, t := range ln.ring {
		if t != tenant {
			totalW += s.weightOfLocked(t)
		}
	}
	projected := time.Duration(backlog+1) * ln.drainEWMA * time.Duration(totalW) / time.Duration(w)
	if projected > cls.MaxQueueAge {
		s.stats.rejected(tenant)
		return fmt.Errorf("%w: tenant %q projected queue age %v (backlog %d, target %v)",
			ErrSLOExceeded, tenant, projected.Round(time.Millisecond), backlog, cls.MaxQueueAge)
	}
	return nil
}

// Close stops admissions. Items already queued remain dequeueable;
// once drained, Dequeue reports ok=false.
func (s *Scheduler[T]) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Depth returns the named lane's queued-item count (0 for unknown
// lanes).
func (s *Scheduler[T]) Depth(laneName string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ln := s.lanes[laneName]; ln != nil {
		return ln.count
	}
	return 0
}
