package store

import (
	"sync/atomic"
	"testing"

	"ioagent/internal/fleet"
	"ioagent/internal/llm"
)

// gatedClient blocks every model call while blocked is set, pinning jobs in
// the running state so a "crash" (abandoning pool and store without any
// shutdown courtesy) leaves genuinely unfinished work behind.
type gatedClient struct {
	inner   llm.Client
	blocked atomic.Bool
	release chan struct{}
	calls   atomic.Int64
}

func (g *gatedClient) Complete(req llm.Request) (llm.Response, error) {
	g.calls.Add(1)
	if g.blocked.Load() {
		<-g.release
	}
	return g.inner.Complete(req)
}

// TestCrashRecoveryRoundTrip is the acceptance scenario: a pool with a
// store attached warms its cache, checkpoints, accepts more jobs, and dies
// without cleanup. A second store+pool on the same directory must serve the
// warm digests from the snapshot without any model calls and replay the
// unfinished jobs to completion.
func TestCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st1 := mustOpen(t, dir, Options{})
	client1 := &gatedClient{inner: llm.NewSim(), release: make(chan struct{})}
	pool1 := fleet.New(client1, testConfig(2, st1))

	// Phase 1: diagnose two traces and checkpoint, so the snapshot holds
	// their results and the journal compacts to empty.
	warm := make(map[string]string) // digest -> diagnosis text
	for i := 0; i < 2; i++ {
		j, err := pool1.Submit(testTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		warm[j.Digest()] = res.Text
	}
	if err := st1.FinalCheckpoint(pool1); err != nil {
		t.Fatal(err)
	}
	if got := st1.pendingCount(); got != 0 {
		t.Fatalf("journal should be empty after drain checkpoint, pending = %d", got)
	}

	// Phase 2: block the backend and submit three more traces. Their
	// submit records hit the journal (write-ahead, before any worker can
	// touch them) but no completion ever lands.
	client1.blocked.Store(true)
	pendingDigests := make(map[string]bool)
	for i := 2; i < 5; i++ {
		j, err := pool1.Submit(testTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		pendingDigests[j.Digest()] = true
	}

	// Crash: no Close, no checkpoint — pool1 and st1 are simply abandoned
	// with workers mid-flight (released at the end so the test can exit).
	defer func() {
		client1.blocked.Store(false)
		close(client1.release)
		pool1.Close()
	}()

	// Restart on the same state directory.
	st2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	rec := st2.Recovered()
	if len(rec.Cache) != 2 {
		t.Fatalf("recovered cache has %d entries, want 2", len(rec.Cache))
	}
	if len(rec.Pending) != 3 {
		t.Fatalf("recovered pending has %d jobs, want 3", len(rec.Pending))
	}

	client2 := &gatedClient{inner: llm.NewSim(), release: make(chan struct{})}
	pool2 := fleet.New(client2, testConfig(2, st2))
	defer pool2.Close()
	restored, resubmitted, err := st2.Replay(pool2)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 || resubmitted != 3 {
		t.Fatalf("replay = (%d restored, %d resubmitted), want (2, 3)", restored, resubmitted)
	}
	pool2.Wait()

	// Warm digests answer from the restored snapshot with zero model
	// calls beyond the replayed jobs' own work.
	replayCalls := client2.calls.Load()
	for digest, text := range warm {
		j, err := pool2.Submit(testTrace(digestSeed(t, digest)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		info := j.Info()
		if !info.CacheHit {
			t.Errorf("digest %.12s should be a cache hit after restart", digest)
		}
		if res.Text != text {
			t.Errorf("digest %.12s: restored diagnosis differs from the pre-crash one", digest)
		}
		if res.Report == nil || len(res.Report.Findings) == 0 {
			t.Errorf("digest %.12s: restored result lost its parsed report", digest)
		}
	}
	if calls := client2.calls.Load(); calls != replayCalls {
		t.Errorf("warm submissions made %d model calls, want 0", calls-replayCalls)
	}

	// The replayed jobs really ran: every pre-crash pending digest is now
	// resident, and resubmitting one is free.
	for digest := range pendingDigests {
		j, err := pool2.Submit(testTrace(digestSeed(t, digest)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatalf("replayed digest %.12s unusable: %v", digest, err)
		}
		if !j.Info().CacheHit {
			t.Errorf("replayed digest %.12s should now be cached", digest)
		}
	}

	// A final checkpoint leaves a journal with nothing to replay: a third
	// incarnation starts clean with the full five-entry cache.
	if err := st2.FinalCheckpoint(pool2); err != nil {
		t.Fatal(err)
	}
	st3 := mustOpen(t, dir, Options{})
	defer st3.Close()
	if rec := st3.Recovered(); len(rec.Pending) != 0 || len(rec.Cache) != 5 {
		t.Errorf("third boot sees %d pending / %d cached, want 0 / 5", len(rec.Pending), len(rec.Cache))
	}
}

// digestSeed maps a digest back to the testTrace seed that produced it.
var digestBySeed = map[string]int{}

func digestSeed(t *testing.T, digest string) int {
	t.Helper()
	if len(digestBySeed) == 0 {
		for seed := 0; seed < 8; seed++ {
			d, err := fleet.Digest(testConfig(1, nil).Agent, testTrace(seed))
			if err != nil {
				t.Fatal(err)
			}
			digestBySeed[d] = seed
		}
	}
	seed, ok := digestBySeed[digest]
	if !ok {
		t.Fatalf("unknown digest %.12s", digest)
	}
	return seed
}

// TestReplayCrashMidwayIsSafe loses the process a second time, between
// resubmitting pending jobs: the not-yet-covered remainder must replay on
// the following boot (at-least-once semantics).
func TestReplayCrashMidwayIsSafe(t *testing.T) {
	dir := t.TempDir()
	st1 := mustOpen(t, dir, Options{})
	c1 := &gatedClient{inner: llm.NewSim(), release: make(chan struct{})}
	pool1 := fleet.New(c1, testConfig(1, st1))
	c1.blocked.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := pool1.Submit(testTrace(i)); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		c1.blocked.Store(false)
		close(c1.release)
		pool1.Close()
	}()

	// Boot 2 crashes before replaying anything: recovery state must be
	// unchanged for boot 3.
	st2 := mustOpen(t, dir, Options{})
	if got := len(st2.Recovered().Pending); got != 2 {
		t.Fatalf("boot 2 pending = %d, want 2", got)
	}
	// (crash: abandon st2 without Replay/Close)

	st3 := mustOpen(t, dir, Options{})
	defer st3.Close()
	if got := len(st3.Recovered().Pending); got != 2 {
		t.Fatalf("boot 3 pending = %d, want 2", got)
	}
	pool3 := fleet.New(llm.NewSim(), testConfig(2, st3))
	defer pool3.Close()
	_, resubmitted, err := st3.Replay(pool3)
	if err != nil {
		t.Fatal(err)
	}
	if resubmitted != 2 {
		t.Fatalf("resubmitted = %d, want 2", resubmitted)
	}
	pool3.Wait()
	if m := pool3.Metrics(); m.Done != 2 || m.Failed != 0 {
		t.Errorf("replayed jobs: %+v, want 2 done", m)
	}
	// Once covered, a fourth boot has nothing to replay even without a
	// checkpoint: the done records cover the resubmitted jobs.
	st4 := mustOpen(t, dir, Options{})
	defer st4.Close()
	if got := len(st4.Recovered().Pending); got != 0 {
		t.Errorf("boot 4 pending = %d, want 0", got)
	}
}

// TestFsyncModes exercises each policy end to end; the durability
// difference is not observable in-process (no power failures in CI), but
// every mode must produce a replayable journal.
func TestFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncBatch, FsyncOff} {
		t.Run(string(mode), func(t *testing.T) {
			dir := t.TempDir()
			st := mustOpen(t, dir, Options{Fsync: mode})
			st.OnJobEvent(submitEvent("job-000001", "d1", testTrace(1)))
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := mustOpen(t, dir, Options{Fsync: mode})
			defer st2.Close()
			if got := len(st2.Recovered().Pending); got != 1 {
				t.Errorf("pending = %d, want 1", got)
			}
		})
	}
}
