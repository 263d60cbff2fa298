package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/ioagent"
	"ioagent/internal/iosim"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
)

// sharedIndex is built once: the 66-document corpus embedding is the
// expensive part of pool construction and identical across tests.
var sharedIndex = knowledge.BuildIndex()

func testConfig(workers int) Config {
	return Config{
		Workers:    workers,
		RetryDelay: time.Millisecond,
		Agent:      ioagent.Options{Index: sharedIndex},
	}
}

// testTrace generates a small deterministic trace; distinct seeds give
// distinct digests.
func testTrace(seed int) *darshan.Log {
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*7 + 1, NProcs: 4, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/fleet/test%02d.ex", seed),
	})
	f := sim.OpenShared(fmt.Sprintf("/scratch/fleet-%03d.dat", seed), iosim.POSIX, false, nil)
	for rank := 0; rank < 4; rank++ {
		for i := int64(0); i < 8; i++ {
			f.WriteAt(rank, (int64(rank)*8+i)*4096, 4096)
		}
	}
	f.Close()
	return sim.Finalize()
}

func TestDigestContentAddressing(t *testing.T) {
	a1, err := Digest(ioagent.Options{}, testTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Digest(ioagent.Options{}, testTrace(1))
	b, _ := Digest(ioagent.Options{}, testTrace(2))
	if a1 != a2 {
		t.Error("identical trace and options must digest identically")
	}
	if a1 == b {
		t.Error("different traces must digest differently")
	}
	// Unset options digest the same as their explicit defaults, and
	// differently from a genuinely different configuration.
	c, _ := Digest(ioagent.Options{Model: llm.GPT4o, CheapModel: llm.GPT4oMini, TopK: 15}, testTrace(1))
	if a1 != c {
		t.Error("zero options must digest as their canonical defaults")
	}
	d, _ := Digest(ioagent.Options{Model: llm.Llama31}, testTrace(1))
	if a1 == d {
		t.Error("different model must digest differently")
	}
}

func TestDigestDoesNotMutateLog(t *testing.T) {
	// Encode canonicalizes record order in place; Digest must work on a
	// private copy so a shared log can be digested while other readers
	// iterate it.
	log := testTrace(1)
	snapshot := func() []string {
		var out []string
		for _, m := range log.ModuleList() {
			for _, r := range log.Modules[m].Records {
				out = append(out, fmt.Sprintf("%s/%d", r.Name, r.Rank))
			}
		}
		return out
	}
	before := snapshot()
	if _, err := Digest(ioagent.Options{}, log); err != nil {
		t.Fatal(err)
	}
	after := snapshot()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("record order changed at %d: %s != %s", i, after[i], before[i])
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := []time.Duration{time.Second, time.Second, 10 * time.Second}
	if got := percentile(samples, 0.95); got != 10*time.Second {
		t.Errorf("p95 of [1s 1s 10s] = %v, want the 10s tail sample", got)
	}
	if got := percentile(samples, 0.50); got != time.Second {
		t.Errorf("p50 = %v, want 1s", got)
	}
	if got := percentile(nil, 0.95); got != 0 {
		t.Errorf("empty sample p95 = %v, want 0", got)
	}
	one := []time.Duration{5 * time.Second}
	if got := percentile(one, 0.01); got != 5*time.Second {
		t.Errorf("single-sample p1 = %v, want the sample", got)
	}
}

func TestPoolDiagnosesBatch(t *testing.T) {
	p := New(llm.NewSim(), testConfig(4))
	defer p.Close()
	const n = 8
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		j, err := p.Submit(testTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	p.Wait()
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res == nil || res.Report == nil || res.Text == "" {
			t.Fatalf("job %d: empty diagnosis", i)
		}
		if j.Status() != StatusDone {
			t.Fatalf("job %d status = %s", i, j.Status())
		}
	}
	m := p.Metrics()
	if m.Submitted != n || m.Done != n || m.Failed != 0 || m.CacheMisses != n {
		t.Errorf("metrics = %+v, want %d submitted/done misses", m, n)
	}
	if m.Queued != 0 || m.Running != 0 {
		t.Errorf("pool should be idle: %+v", m)
	}
	if m.LatencyP50 <= 0 || m.LatencyP95 < m.LatencyP50 {
		t.Errorf("latency percentiles implausible: p50=%v p95=%v", m.LatencyP50, m.LatencyP95)
	}
}

func TestPoolCacheHitOnResubmit(t *testing.T) {
	p := New(llm.NewSim(), testConfig(2))
	defer p.Close()
	first, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.Wait()
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := again.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("cache hit should return the shared cached result")
	}
	info := again.Info()
	if !info.CacheHit || info.Status != StatusDone || info.Attempts != 0 {
		t.Errorf("cache-hit job info = %+v", info)
	}
	if m := p.Metrics(); m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
}

func TestPoolCoalescesInflightDuplicates(t *testing.T) {
	// Slow the backend so the duplicate lands while the primary is still
	// in flight.
	p := New(llm.WithLatency(llm.NewSim(), 5*time.Millisecond), testConfig(2))
	defer p.Close()
	a, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Error("coalesced job must share the primary's result")
	}
	m := p.Metrics()
	// The duplicate either coalesced (primary still running) or hit the
	// cache (primary finished first); both mean zero duplicated work.
	if m.Coalesced+m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("coalesced=%d hits=%d misses=%d, want exactly one free duplicate", m.Coalesced, m.CacheHits, m.CacheMisses)
	}
	if m.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", m.HitRate)
	}
}

// failFirstN returns transient errors for the first n calls, then delegates.
type failFirstN struct {
	inner llm.Client
	n     int64
	calls atomic.Int64
}

func (f *failFirstN) Complete(req llm.Request) (llm.Response, error) {
	if f.calls.Add(1) <= f.n {
		return llm.Response{}, llm.Transient(errors.New("warming up"))
	}
	return f.inner.Complete(req)
}

func TestPoolRetriesTransientErrors(t *testing.T) {
	p := New(&failFirstN{inner: llm.NewSim(), n: 1}, testConfig(1))
	defer p.Close()
	j, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("job should succeed after retry: %v", err)
	}
	info := j.Info()
	if info.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (one retry)", info.Attempts)
	}
	if m := p.Metrics(); m.Retries < 1 || m.Done != 1 {
		t.Errorf("metrics = %+v, want >=1 retry and 1 done", m)
	}
}

// permanentFail always returns a non-transient error.
type permanentFail struct{ calls atomic.Int64 }

func (f *permanentFail) Complete(llm.Request) (llm.Response, error) {
	f.calls.Add(1)
	return llm.Response{}, errors.New("bad request")
}

func TestPoolFailsFastOnPermanentErrors(t *testing.T) {
	client := &permanentFail{}
	p := New(client, testConfig(1))
	defer p.Close()
	j, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err == nil {
		t.Fatal("job should fail on a permanent error")
	}
	if info := j.Info(); info.Status != StatusFailed || info.Attempts != 1 || info.Error == "" {
		t.Errorf("failed job info = %+v, want 1 attempt", info)
	}
	if m := p.Metrics(); m.Failed != 1 || m.Retries != 0 {
		t.Errorf("metrics = %+v, want 1 failed and no retries", m)
	}
	// A failed diagnosis must not poison the cache.
	if m := p.Metrics(); m.CacheLen != 0 {
		t.Error("failed job should not be cached")
	}
}

// exhaustTransient always fails transiently, so every attempt burns a retry.
type exhaustTransient struct{ calls atomic.Int64 }

func (f *exhaustTransient) Complete(llm.Request) (llm.Response, error) {
	f.calls.Add(1)
	return llm.Response{}, llm.Transient(errors.New("always overloaded"))
}

func TestPoolExhaustsRetryBudget(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxAttempts = 3
	var slept []time.Duration
	cfg.sleep = func(d time.Duration) { slept = append(slept, d) }
	p := New(&exhaustTransient{}, cfg)
	defer p.Close()
	j, _ := p.Submit(testTrace(0))
	if _, err := j.Wait(); err == nil || !llm.IsTransient(err) {
		t.Fatalf("exhausted job should surface the transient error, got %v", err)
	}
	if got := j.Info().Attempts; got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	// Exponential backoff: each retry waits twice the previous delay.
	if len(slept) != 2 || slept[1] != 2*slept[0] {
		t.Errorf("backoff schedule = %v, want doubling delays", slept)
	}
}

func TestPoolShardingDeterminism(t *testing.T) {
	// The same batch diagnosed with 1 worker and with 8 workers must
	// produce byte-identical reports per trace: sharding affects only
	// scheduling, never results.
	diagnose := func(workers int) map[string]string {
		p := New(llm.NewSim(), testConfig(workers))
		defer p.Close()
		out := make(map[string]string)
		var jobs []*Job
		for i := 0; i < 6; i++ {
			j, err := p.Submit(testTrace(i))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			res, err := j.Wait()
			if err != nil {
				t.Fatal(err)
			}
			out[j.Digest()] = res.Text
		}
		return out
	}
	serial := diagnose(1)
	parallel := diagnose(8)
	if len(serial) != len(parallel) {
		t.Fatalf("digest sets differ: %d vs %d", len(serial), len(parallel))
	}
	for digest, text := range serial {
		if parallel[digest] != text {
			t.Errorf("digest %.12s: diagnosis differs between 1 and 8 workers", digest)
		}
	}
}

func TestPoolSecondBatchHitsCache(t *testing.T) {
	p := New(llm.NewSim(), testConfig(4))
	defer p.Close()
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := p.Submit(testTrace(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	before := p.Metrics()
	for i := 0; i < n; i++ {
		if _, err := p.Submit(testTrace(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	after := p.Metrics()
	hits := after.CacheHits - before.CacheHits
	if rate := float64(hits) / n; rate < 0.9 {
		t.Errorf("second-batch cache hit rate = %.2f, want >= 0.9", rate)
	}
}

func TestPoolConcurrentSubmitters(t *testing.T) {
	p := New(llm.NewSim(), testConfig(4))
	defer p.Close()
	const submitters, perSubmitter, distinct = 8, 10, 4
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				j, err := p.Submit(testTrace((s + i) % distinct))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := j.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	m := p.Metrics()
	total := submitters * perSubmitter
	if m.Submitted != int64(total) || m.Done != int64(total) || m.Failed != 0 {
		t.Errorf("metrics = %+v, want %d submitted and done", m, total)
	}
	if m.CacheMisses > distinct {
		t.Errorf("misses = %d, want <= %d distinct traces", m.CacheMisses, distinct)
	}
	if len(p.Jobs()) != total {
		t.Errorf("job registry has %d entries, want %d", len(p.Jobs()), total)
	}
}

func TestPoolCloseRejectsNewWork(t *testing.T) {
	p := New(llm.NewSim(), testConfig(2))
	j, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	p.Close() // drains in-flight work
	if _, err := j.Wait(); err != nil {
		t.Fatalf("in-flight job should complete across Close: %v", err)
	}
	if _, err := p.Submit(testTrace(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	p.Close() // second Close is a no-op
}

func TestPoolJobHistoryPruning(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxJobHistory = 3
	p := New(llm.NewSim(), cfg)
	defer p.Close()
	var first *Job
	for i := 0; i < 6; i++ {
		j, err := p.Submit(testTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = j
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(p.Jobs()); got > 3 {
		t.Errorf("registry holds %d jobs, want <= 3", got)
	}
	if _, ok := p.Job(first.ID()); ok {
		t.Error("oldest completed job should have been pruned")
	}
	// The pruned job's handle still works for its holder.
	if res, err := first.Wait(); err != nil || res == nil {
		t.Error("pruning must not invalidate an existing job handle")
	}
	// Metrics are cumulative and unaffected by pruning.
	if m := p.Metrics(); m.Submitted != 6 || m.Done != 6 {
		t.Errorf("metrics = %+v, want 6 submitted and done", m)
	}
}

func TestPoolJobLookup(t *testing.T) {
	p := New(llm.NewSim(), testConfig(1))
	defer p.Close()
	j, _ := p.Submit(testTrace(0))
	got, ok := p.Job(j.ID())
	if !ok || got != j {
		t.Error("Job(id) should return the submitted job")
	}
	if _, ok := p.Job("job-999999"); ok {
		t.Error("unknown id should not resolve")
	}
}

// TestJobDoneClosedBeforeTerminalStatusIsVisible: GET /v1/jobs/{id} reads
// Status and GET /v1/jobs/{id}/diagnosis reads Done; a poller that saw
// "done" must never then be told job_not_done. The observer spins on
// Status while complete runs and checks Done the instant it turns
// terminal.
func TestJobDoneClosedBeforeTerminalStatusIsVisible(t *testing.T) {
	for i := 0; i < 20000; i++ {
		j := &Job{done: make(chan struct{}), status: StatusRunning}
		early := make(chan bool)
		go func() {
			for j.Status() == StatusRunning {
			}
			select {
			case <-j.Done():
				early <- false
			default:
				early <- true
			}
		}()
		j.complete(&ioagent.Result{}, nil, time.Now())
		if <-early {
			t.Fatalf("iteration %d: status was terminal while Done was still open", i)
		}
	}
}
