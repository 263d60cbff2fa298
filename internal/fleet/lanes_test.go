package fleet

import (
	"sync"
	"sync/atomic"
	"testing"

	"ioagent/internal/llm"
)

// gatedClient blocks every model call until the gate closes, and signals
// once when the first call begins — i.e. once a worker has dequeued a job
// and started its pipeline.
type gatedClient struct {
	inner   llm.Client
	gate    chan struct{}
	started chan struct{}
	first   atomic.Bool
}

func (g *gatedClient) Complete(req llm.Request) (llm.Response, error) {
	if g.first.CompareAndSwap(false, true) {
		close(g.started)
	}
	<-g.gate
	return g.inner.Complete(req)
}

// laneRecorder captures terminal-event order through the job-event hook
// (which the pool fires synchronously from the worker, so "events before
// mine" is exactly "jobs finished before mine").
type laneRecorder struct {
	mu   sync.Mutex
	done []Event
}

func (r *laneRecorder) hook(ev Event) {
	if ev.Kind == EventDone || ev.Kind == EventFailed {
		r.mu.Lock()
		r.done = append(r.done, ev)
		r.mu.Unlock()
	}
}

func (r *laneRecorder) doneLanes() []Lane {
	r.mu.Lock()
	defer r.mu.Unlock()
	lanes := make([]Lane, len(r.done))
	for i, ev := range r.done {
		lanes[i] = ev.Job.Lane
	}
	return lanes
}

func TestSubmitLaneDefaultsAndValidation(t *testing.T) {
	p := New(llm.NewSim(), testConfig(2))
	defer p.Close()

	j, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	if j.Lane() != LaneInteractive {
		t.Errorf("Submit lane = %q, want the interactive default", j.Lane())
	}
	if info := j.Info(); info.Lane != LaneInteractive {
		t.Errorf("JobInfo lane = %q, want interactive", info.Lane)
	}

	jb, err := submitOpts(p, testTrace(1), SubmitOpts{Lane: LaneBatch})
	if err != nil {
		t.Fatal(err)
	}
	if jb.Lane() != LaneBatch {
		t.Errorf("batch-lane submit lane = %q", jb.Lane())
	}

	if _, err := submitOpts(p, testTrace(2), SubmitOpts{Lane: "bulk"}); err == nil {
		t.Error("unknown lane must be rejected")
	}
}

// TestBatchFloodCannotStarveInteractive is the ISSUE acceptance scenario:
// with one worker pinned on a batch job and the batch lane full to its
// QueueDepth, a late interactive submission still dequeues next and
// completes while every flooded batch job is still queued.
func TestBatchFloodCannotStarveInteractive(t *testing.T) {
	const depth = 4
	gate := &gatedClient{inner: llm.NewSim(), gate: make(chan struct{}), started: make(chan struct{})}
	rec := &laneRecorder{}
	cfg := testConfig(1)
	cfg.QueueDepth = depth
	cfg.OnJobEvent = rec.hook
	p := New(gate, cfg)
	defer p.Close()

	// One batch job occupies the worker (blocked at the gate)...
	if _, err := submitOpts(p, testTrace(100), SubmitOpts{Lane: LaneBatch}); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	// ...and a full QueueDepth of batch jobs saturates the batch lane.
	for i := 0; i < depth; i++ {
		if _, err := submitOpts(p, testTrace(101+i), SubmitOpts{Lane: LaneBatch}); err != nil {
			t.Fatal(err)
		}
	}
	ji, err := submitOpts(p, testTrace(200), SubmitOpts{Lane: LaneInteractive})
	if err != nil {
		t.Fatal(err)
	}

	if m := p.Metrics(); m.QueuedBatch != depth || m.QueuedInteractive != 1 {
		t.Fatalf("pre-release queue = %d batch / %d interactive, want %d / 1",
			m.QueuedBatch, m.QueuedInteractive, depth)
	}

	close(gate.gate)
	if _, err := ji.Wait(); err != nil {
		t.Fatal(err)
	}
	p.Wait()

	// Completion order: the running batch job finishes first (it owned
	// the worker), the interactive job second — before any flooded batch
	// job, i.e. while all `depth` of them were still queued.
	lanes := rec.doneLanes()
	batchDoneBeforeInteractive := 0
	for _, lane := range lanes {
		if lane == LaneInteractive {
			break
		}
		batchDoneBeforeInteractive++
	}
	if batchDoneBeforeInteractive > 1 {
		t.Errorf("interactive job completed after %d batch jobs (order %v); a batch flood must not delay it past the in-flight job",
			batchDoneBeforeInteractive, lanes)
	}
}

// TestInteractiveFloodKeepsBatchShare is the reverse guarantee: under a
// saturating interactive workload, the weighted dequeue still hands every
// BatchShare-th worker slot to the batch lane.
func TestInteractiveFloodKeepsBatchShare(t *testing.T) {
	gate := &gatedClient{inner: llm.NewSim(), gate: make(chan struct{}), started: make(chan struct{})}
	rec := &laneRecorder{}
	cfg := testConfig(1)
	cfg.QueueDepth = 4
	cfg.BatchShare = 2 // every 2nd dequeue prefers batch
	cfg.OnJobEvent = rec.hook
	p := New(gate, cfg)
	defer p.Close()

	// Interactive job on the worker, three more flooding the lane, one
	// batch job waiting behind them.
	if _, err := submitOpts(p, testTrace(300), SubmitOpts{Lane: LaneInteractive}); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	for i := 0; i < 3; i++ {
		if _, err := submitOpts(p, testTrace(301+i), SubmitOpts{Lane: LaneInteractive}); err != nil {
			t.Fatal(err)
		}
	}
	jb, err := submitOpts(p, testTrace(400), SubmitOpts{Lane: LaneBatch})
	if err != nil {
		t.Fatal(err)
	}

	close(gate.gate)
	if _, err := jb.Wait(); err != nil {
		t.Fatal(err)
	}
	p.Wait()

	// Dequeue #2 prefers batch (2 % BatchShare == 0), so the batch job
	// runs second — it must not wait out the whole interactive flood.
	lanes := rec.doneLanes()
	interactiveDoneBeforeBatch := 0
	for _, lane := range lanes {
		if lane == LaneBatch {
			break
		}
		interactiveDoneBeforeBatch++
	}
	if interactiveDoneBeforeBatch > 1 {
		t.Errorf("batch job waited behind %d interactive jobs (order %v); BatchShare must reserve its slot",
			interactiveDoneBeforeBatch, lanes)
	}
}

// TestStrictPriorityDrainsInteractiveFirst pins the BatchShare<0 mode:
// batch runs only when the interactive lane is empty.
func TestStrictPriorityDrainsInteractiveFirst(t *testing.T) {
	gate := &gatedClient{inner: llm.NewSim(), gate: make(chan struct{}), started: make(chan struct{})}
	rec := &laneRecorder{}
	cfg := testConfig(1)
	cfg.QueueDepth = 8
	cfg.BatchShare = -1
	cfg.OnJobEvent = rec.hook
	p := New(gate, cfg)
	defer p.Close()

	if _, err := submitOpts(p, testTrace(500), SubmitOpts{Lane: LaneBatch}); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	for i := 0; i < 3; i++ {
		if _, err := submitOpts(p, testTrace(501+i), SubmitOpts{Lane: LaneBatch}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := submitOpts(p, testTrace(600+i), SubmitOpts{Lane: LaneInteractive}); err != nil {
			t.Fatal(err)
		}
	}

	close(gate.gate)
	p.Wait()

	// After the in-flight batch job, every interactive job must complete
	// before any queued batch job.
	lanes := rec.doneLanes()
	if len(lanes) != 7 {
		t.Fatalf("recorded %d completions, want 7", len(lanes))
	}
	want := []Lane{LaneBatch, LaneInteractive, LaneInteractive, LaneInteractive, LaneBatch, LaneBatch, LaneBatch}
	for i, lane := range lanes {
		if lane != want[i] {
			t.Fatalf("completion order = %v, want %v (strict interactive priority)", lanes, want)
		}
	}
}

func TestBatchShareClampsDegenerateValues(t *testing.T) {
	// BatchShare=1 would prefer batch on every dequeue — the inverse of
	// the anti-starvation guarantee — so defaults clamp it to 2.
	cfg := Config{BatchShare: 1}.withDefaults()
	if cfg.BatchShare != 2 {
		t.Errorf("BatchShare=1 clamped to %d, want 2", cfg.BatchShare)
	}
	if got := (Config{}).withDefaults().BatchShare; got != 4 {
		t.Errorf("default BatchShare = %d, want 4", got)
	}
	if got := (Config{BatchShare: -3}).withDefaults().BatchShare; got != -3 {
		t.Errorf("strict-priority BatchShare = %d, want preserved", got)
	}
}
