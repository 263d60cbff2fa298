package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
)

// A job that reaches the queue owns a decoded log; hits and followers
// hold none. These tests hand the pool a Preparsed whose log is decoded
// on demand and count the decodes.

// lazyTrace is a lazily decoded submission of testTrace(seed): the
// content digest up front, the log behind a counting closure.
type lazyTrace struct {
	pp      Preparsed
	decodes atomic.Int64
}

func newLazyTrace(t *testing.T, seed int) *lazyTrace {
	t.Helper()
	log := testTrace(seed)
	cd, err := darshan.ContentDigest(log)
	if err != nil {
		t.Fatal(err)
	}
	lt := &lazyTrace{}
	lt.pp = Preparsed{ContentDigest: cd, Decode: func() (*darshan.Log, error) {
		lt.decodes.Add(1)
		return log, nil
	}}
	return lt
}

// blockedLLM parks every model call until release is closed, pinning a
// primary in flight.
type blockedLLM struct {
	inner   llm.Client
	release chan struct{}
}

func (b *blockedLLM) Complete(req llm.Request) (llm.Response, error) {
	<-b.release
	return b.inner.Complete(req)
}

// submittedEvent returns job id's one EventSubmitted.
func submittedEvent(t *testing.T, log *eventLog, id string) Event {
	t.Helper()
	var out []Event
	for _, ev := range log.byJob(id) {
		if ev.Kind == EventSubmitted {
			out = append(out, ev)
		}
	}
	if len(out) != 1 {
		t.Fatalf("job %s emitted %d submitted events, want exactly 1", id, len(out))
	}
	return out[0]
}

// TestLazyLogHitAndFollowerNeverDecode: a duplicate that coalesces onto
// an in-flight primary and a duplicate answered by the cache both finish
// without their trace ever being decoded, report CacheHit on their
// submitted event, and carry no log through Job or Event.
func TestLazyLogHitAndFollowerNeverDecode(t *testing.T) {
	var events eventLog
	cfg := testConfig(1)
	cfg.OnJobEvent = events.record
	backend := &blockedLLM{inner: llm.NewSim(), release: make(chan struct{})}
	p := New(backend, cfg)
	defer p.Close()
	ctx := context.Background()

	primary, err := p.Submit(testTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	lt := newLazyTrace(t, 0)
	follower, err := p.SubmitPreparsed(ctx, lt.pp, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ev := submittedEvent(t, &events, follower.ID()); !ev.Job.CacheHit || ev.Log != nil || ev.Job.Status == StatusDone {
		t.Errorf("follower's submitted event = %+v (log present %v), want a coalesced CacheHit in flight with no log", ev.Job, ev.Log != nil)
	}
	close(backend.release)
	if _, err := primary.Wait(); err != nil {
		t.Fatal(err)
	}
	if res, err := follower.Wait(); err != nil || res == nil {
		t.Fatalf("follower finished with (%v, %v), want the primary's result", res, err)
	}

	hit, err := p.SubmitPreparsed(ctx, lt.pp, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ev := submittedEvent(t, &events, hit.ID()); !ev.Job.CacheHit || ev.Job.Status != StatusDone || ev.Log != nil {
		t.Errorf("exact hit's submitted event = %+v (log present %v), want a done CacheHit with no log", ev.Job, ev.Log != nil)
	}
	if n := lt.decodes.Load(); n != 0 {
		t.Errorf("follower and exact hit decoded the trace %d times, want 0", n)
	}
	if follower.log != nil || hit.log != nil {
		t.Error("a hit or follower job holds a log")
	}
	if m := p.Metrics(); m.CacheHits != 1 || m.Coalesced != 1 || m.CacheMisses != 1 {
		t.Errorf("metrics hits/coalesced/misses = %d/%d/%d, want 1/1/1", m.CacheHits, m.Coalesced, m.CacheMisses)
	}
}

// TestLazyLogDecodedOnceWhenJobRuns: a lazily decoded submission that has
// to run is decoded exactly once, before the job exists, so the
// write-ahead submitted event carries the trace.
func TestLazyLogDecodedOnceWhenJobRuns(t *testing.T) {
	var events eventLog
	cfg := testConfig(1)
	cfg.OnJobEvent = events.record
	p := New(llm.NewSim(), cfg)
	defer p.Close()

	lt := newLazyTrace(t, 3)
	j, err := p.SubmitPreparsed(context.Background(), lt.pp, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := lt.decodes.Load(); n != 1 {
		t.Errorf("trace decoded %d times, want exactly 1", n)
	}
	if ev := submittedEvent(t, &events, j.ID()); ev.Log == nil || ev.Job.CacheHit || ev.Job.Status != StatusQueued {
		t.Errorf("submitted event = %+v (log present %v), want queued with the trace attached", ev.Job, ev.Log != nil)
	}
	eager, err := p.Submit(testTrace(3))
	if err != nil {
		t.Fatal(err)
	}
	if eager.Digest() != j.Digest() || !eager.Info().CacheHit {
		t.Errorf("eager resubmission %+v is not a hit on the lazy job's digest %s", eager.Info(), j.Digest())
	}

	// A Decode that fails refuses the submission before any job exists.
	bad := newLazyTrace(t, 4)
	bad.pp.Decode = func() (*darshan.Log, error) { return nil, context.DeadlineExceeded }
	before := len(p.Jobs())
	if _, err := p.SubmitPreparsed(context.Background(), bad.pp, SubmitOpts{}); err == nil {
		t.Error("a submission whose trace cannot be decoded was accepted")
	}
	if len(p.Jobs()) != before {
		t.Error("a refused lazy submission left a job behind")
	}
}

// TestLazyLogExpiredEntryIsDecodedAndRun: a digest whose cache entry has
// just expired is not a hit. The submission decodes, runs and journals
// its trace like any miss — it is never enqueued with a nil log.
func TestLazyLogExpiredEntryIsDecodedAndRun(t *testing.T) {
	var clock struct {
		sync.Mutex
		t time.Time
	}
	clock.t = time.Unix(1_700_000_000, 0)
	var events eventLog
	cfg := testConfig(1)
	cfg.CacheTTL = time.Minute
	cfg.OnJobEvent = events.record
	cfg.now = func() time.Time {
		clock.Lock()
		defer clock.Unlock()
		return clock.t
	}
	p := New(llm.NewSim(), cfg)
	defer p.Close()
	ctx := context.Background()

	lt := newLazyTrace(t, 5)
	first, err := p.SubmitPreparsed(ctx, lt.pp, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	still, err := p.SubmitPreparsed(ctx, lt.pp, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !still.Info().CacheHit || lt.decodes.Load() != 1 {
		t.Fatalf("inside the TTL: hit=%v after %d decodes, want a hit and the one decode of the first run", still.Info().CacheHit, lt.decodes.Load())
	}

	clock.Lock()
	clock.t = clock.t.Add(2 * time.Minute)
	clock.Unlock()
	again, err := p.SubmitPreparsed(ctx, lt.pp, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := again.Wait()
	if err != nil || res == nil {
		t.Fatalf("resubmission after expiry finished with (%v, %v)", res, err)
	}
	if info := again.Info(); info.CacheHit || info.Attempts == 0 {
		t.Errorf("resubmission after expiry = %+v, want a fresh run", info)
	}
	if n := lt.decodes.Load(); n != 2 {
		t.Errorf("trace decoded %d times in total, want 2 (first run, run after expiry)", n)
	}
	if ev := submittedEvent(t, &events, again.ID()); ev.Log == nil {
		t.Error("the job that ran after expiry was journaled without its trace")
	}
}

// TestLazyLogDigestSettledWhileDecoding: the decode happens outside the
// pool lock, so the digest can be claimed or cached meanwhile. The
// submission looks again and rides along — as a follower of the primary
// that claimed it, or as a plain hit — instead of running a second
// pipeline.
func TestLazyLogDigestSettledWhileDecoding(t *testing.T) {
	backend := &blockedLLM{inner: llm.NewSim(), release: make(chan struct{})}
	p := New(backend, testConfig(1))
	defer p.Close()
	ctx := context.Background()

	// Claimed meanwhile: another submission becomes the primary.
	var primary *Job
	lt := newLazyTrace(t, 6)
	decode := lt.pp.Decode
	lt.pp.Decode = func() (*darshan.Log, error) {
		var err error
		if primary, err = p.Submit(testTrace(6)); err != nil {
			return nil, err
		}
		return decode()
	}
	follower, err := p.SubmitPreparsed(ctx, lt.pp, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if info := follower.Info(); !info.CacheHit || info.Status == StatusDone {
		t.Errorf("submission whose digest was claimed mid-decode = %+v, want a coalesced follower", info)
	}
	close(backend.release)
	if _, err := primary.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.Wait(); err != nil {
		t.Fatal(err)
	}

	// Cached meanwhile: the result lands while this submission decodes.
	lt = newLazyTrace(t, 7)
	decode = lt.pp.Decode
	lt.pp.Decode = func() (*darshan.Log, error) {
		p.cache.Put(digestWith(p.cfg.Agent, lt.pp.ContentDigest), &ioagent.Result{Text: "settled"})
		return decode()
	}
	hit, err := p.SubmitPreparsed(ctx, lt.pp, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hit.Wait()
	if err != nil || res.Text != "settled" || !hit.Info().CacheHit {
		t.Errorf("submission whose digest was cached mid-decode = (%v, %v, %+v), want the cached result as a hit", res, err, hit.Info())
	}
	if m := p.Metrics(); m.CacheMisses != 1 {
		t.Errorf("%d pipelines ran, want only the claiming primary's", m.CacheMisses)
	}
}
