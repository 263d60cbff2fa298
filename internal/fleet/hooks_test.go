package fleet

import (
	"sync"
	"testing"
	"time"

	"ioagent/internal/llm"
)

// eventLog is a concurrency-safe OnJobEvent recorder.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) record(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *eventLog) byJob(id string) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, ev := range l.events {
		if ev.Job.ID == id {
			out = append(out, ev)
		}
	}
	return out
}

// waitTerminal returns job id's events once its terminal event is among
// them, or what was recorded after 10 s. The pool emits a terminal event
// after the job's Done closes, so Wait can return before it is recorded.
// A plain cache hit has no separate terminal event: its submitted event
// already carries the terminal status, and counts as one.
func (l *eventLog) waitTerminal(id string) []Event {
	deadline := time.Now().Add(10 * time.Second)
	for {
		evs := l.byJob(id)
		for _, ev := range evs {
			terminal := ev.Job.Status == StatusDone || ev.Job.Status == StatusFailed
			if ev.Kind == EventDone || ev.Kind == EventFailed || (ev.Kind == EventSubmitted && terminal) {
				return evs
			}
		}
		if time.Now().After(deadline) {
			return evs
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolJobEventLifecycle(t *testing.T) {
	var log eventLog
	cfg := testConfig(2)
	cfg.OnJobEvent = log.record
	p := New(llm.NewSim(), cfg)
	defer p.Close()

	// A fresh trace: submitted (queued, trace attached) then done.
	j, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	evs := log.waitTerminal(j.ID())
	if len(evs) != 2 || evs[0].Kind != EventSubmitted || evs[1].Kind != EventDone {
		t.Fatalf("fresh job events = %+v, want submitted then done", kinds(evs))
	}
	if evs[0].Job.Status != StatusQueued || evs[0].Job.CacheHit {
		t.Errorf("submitted event state = %+v, want queued non-cache-hit", evs[0].Job)
	}
	if evs[0].Log == nil {
		t.Error("submitted event must carry the trace for write-ahead journaling")
	}
	if evs[1].Log != nil {
		t.Error("terminal events must not carry the trace")
	}

	// A cache hit: exactly one event, already terminal, flagged CacheHit.
	hit, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	<-hit.Done()
	hevs := log.byJob(hit.ID())
	if len(hevs) != 1 || hevs[0].Kind != EventSubmitted {
		t.Fatalf("cache-hit events = %v, want a single submitted event", kinds(hevs))
	}
	if !hevs[0].Job.CacheHit || hevs[0].Job.Status != StatusDone {
		t.Errorf("cache-hit event state = %+v, want done cache-hit", hevs[0].Job)
	}
}

func TestPoolJobEventFailure(t *testing.T) {
	var log eventLog
	cfg := testConfig(1)
	cfg.OnJobEvent = log.record
	p := New(&permanentFail{}, cfg)
	defer p.Close()
	j, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err == nil {
		t.Fatal("job should fail")
	}
	evs := log.waitTerminal(j.ID())
	if len(evs) != 2 || evs[1].Kind != EventFailed {
		t.Fatalf("failed job events = %v, want submitted then failed", kinds(evs))
	}
	if evs[1].Job.Error == "" {
		t.Error("failed event should carry the error")
	}
}

func TestPoolJobEventCoalesced(t *testing.T) {
	var log eventLog
	cfg := testConfig(1)
	cfg.OnJobEvent = log.record
	p := New(llm.WithLatency(llm.NewSim(), 5*time.Millisecond), cfg)
	defer p.Close()
	a, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	<-b.Done()
	bevs := log.waitTerminal(b.ID())
	// Coalesced while in flight: submitted(CacheHit) + done. Primary
	// finished first: a single terminal submitted event (plain cache hit).
	for _, ev := range bevs {
		if ev.Kind == EventSubmitted && !ev.Job.CacheHit {
			t.Errorf("duplicate submission event %+v should be flagged CacheHit", ev.Job)
		}
	}
	if last := bevs[len(bevs)-1]; last.Job.Status != StatusDone {
		t.Errorf("duplicate's final event status = %s, want done", last.Job.Status)
	}
}

func TestCacheHooksObserveMembership(t *testing.T) {
	var mu sync.Mutex
	inserted := map[string]int{}
	evicted := map[string]int{}
	cfg := testConfig(1)
	cfg.CacheSize = 2
	cfg.OnCacheInsert = func(d string) { mu.Lock(); inserted[d]++; mu.Unlock() }
	cfg.OnCacheEvict = func(d string) { mu.Lock(); evicted[d]++; mu.Unlock() }
	p := New(llm.NewSim(), cfg)
	defer p.Close()

	var digests []string
	for i := 0; i < 3; i++ {
		j, err := p.Submit(testTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, j.Digest())
	}
	mu.Lock()
	defer mu.Unlock()
	for _, d := range digests {
		if inserted[d] != 1 {
			t.Errorf("digest %.12s inserted %d times, want 1", d, inserted[d])
		}
	}
	// Capacity 2, three inserts in order: the oldest entry was evicted.
	if evicted[digests[0]] != 1 || len(evicted) != 1 {
		t.Errorf("evictions = %v, want exactly the oldest digest %.12s", evicted, digests[0])
	}
}

func TestCacheExportRestoreRoundTrip(t *testing.T) {
	p1 := New(llm.NewSim(), testConfig(2))
	defer p1.Close()
	want := make(map[string]string) // digest -> text
	for i := 0; i < 3; i++ {
		j, err := p1.Submit(testTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want[j.Digest()] = res.Text
	}
	exported := p1.CacheExport()
	if len(exported) != 3 {
		t.Fatalf("exported %d entries, want 3", len(exported))
	}
	for _, e := range exported {
		if e.Added.IsZero() || e.Result == nil {
			t.Fatalf("export entry incomplete: %+v", e)
		}
	}

	// A second pool restores the export and serves every digest from
	// cache without running the pipeline (a failing client proves it).
	p2 := New(&permanentFail{}, testConfig(2))
	defer p2.Close()
	p2.CacheRestore(exported)
	for i := 0; i < 3; i++ {
		j, err := p2.Submit(testTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("restored pool should answer from cache: %v", err)
		}
		if res.Text != want[j.Digest()] {
			t.Errorf("restored diagnosis for %.12s differs from original", j.Digest())
		}
	}
	if m := p2.Metrics(); m.CacheHits != 3 || m.CacheMisses != 0 {
		t.Errorf("restored pool metrics = %+v, want 3 hits / 0 misses", m)
	}
}

func TestCacheRestoreDropsExpired(t *testing.T) {
	p1 := New(llm.NewSim(), testConfig(1))
	defer p1.Close()
	j, err := p1.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	exported := p1.CacheExport()
	// Age the entry past a short TTL before restoring.
	exported[0].Added = time.Now().Add(-time.Hour)

	cfg := testConfig(1)
	cfg.CacheTTL = time.Minute
	p2 := New(llm.NewSim(), cfg)
	defer p2.Close()
	p2.CacheRestore(exported)
	if n := p2.Metrics().CacheLen; n != 0 {
		t.Errorf("expired entry restored: cache has %d entries, want 0", n)
	}
}

func TestCacheRestorePreservesLRUOrder(t *testing.T) {
	cfg := testConfig(2)
	cfg.CacheSize = 2
	p1 := New(llm.NewSim(), cfg)
	defer p1.Close()
	for i := 0; i < 2; i++ {
		j, _ := p1.Submit(testTrace(i))
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	exported := p1.CacheExport() // MRU first: trace 1 then trace 0

	p2 := New(llm.NewSim(), cfg)
	defer p2.Close()
	p2.CacheRestore(exported)
	// A new insert must evict the restored LRU (trace 0), not the MRU.
	j, _ := p2.Submit(testTrace(2))
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	mru, _ := p2.Submit(testTrace(1))
	<-mru.Done()
	if !mru.Info().CacheHit {
		t.Error("restored MRU entry should have survived the eviction")
	}
}

func kinds(evs []Event) []EventKind {
	out := make([]EventKind, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}
