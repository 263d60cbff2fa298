package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ioagent/internal/eval"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/llm"
)

// clients is the number of closed-loop callers: each waits for its
// diagnosis before sending the next trace, over one connection.
const clients = 2

var errOutOfInputs = errors.New("pre-generated inputs used up (raise the workload's freshPerSecond)")

// laneFor and tenantFor spread submissions over 2 lanes and 3 tenants
// deterministically, as cmd/fleetbench does.
func laneFor(n int) api.Lane {
	if n%3 == 0 {
		return api.LaneBatch
	}
	return api.LaneInteractive
}

func tenantFor(n int) string {
	return [...]string{"astro-sim", "climate-ens", "genomics"}[n%3]
}

// result is one submission's outcome.
type result struct {
	idx        int
	job        job
	start, end time.Time
	diag       api.Diagnosis
	err        error
}

func (r result) latencyMs() float64 { return ms(r.end.Sub(r.start)) }

// run is one booted cluster with its inputs and the cursor into them.
type run struct {
	cl   *cluster
	plan *plan
	next atomic.Int64 // index of the next submission
	// doneRaces counts job_not_done answers about jobs that were done.
	doneRaces atomic.Int64

	// seeded are the set-up responses; modality maps every digest the
	// fleet has reported to the modality of the trace behind it.
	seeded   []result
	modality map[string]string
	tracer   *tracer
}

// submit sends one job through the router and waits for its diagnosis,
// as a caller of the SDK would (SubmitAndWait is Submit + WaitDiagnosis).
func (r *run) submit(ctx context.Context, c *client.Client, j job, n int) (api.Diagnosis, error) {
	lane, tenant := laneFor(n), tenantFor(n)
	var info api.JobInfo
	var err error
	if j.mode == buffered {
		info, err = c.Submit(ctx, api.SubmitRequest{Trace: j.in.bytes(), Lane: lane, Tenant: tenant})
	} else {
		var body io.Reader = bytes.NewReader(j.in.wire)
		if j.in.suffix != nil {
			body = io.MultiReader(body, bytes.NewReader(j.in.suffix))
		}
		opts := client.StreamOpts{Lane: lane, Tenant: tenant}
		if j.mode == streamed {
			info, err = c.SubmitStream(ctx, body, opts)
		} else {
			info, err = c.SubmitChunked(ctx, body, j.in.chunk, opts)
		}
	}
	if err != nil {
		return api.Diagnosis{}, err
	}
	d, err := c.WaitDiagnosis(ctx, info.ID)
	// A job's status reads done a moment before its result is readable
	// (Job.complete sets the status, then closes the done channel), so a
	// poll landing in between is told job_not_done about a done job, which
	// the SDK does not retry. It takes a worker descheduled at that very
	// point — about one job in 10^4 on this box. The harness polls again
	// and counts it instead of failing the job.
	for try := 0; api.ErrorCode(err) == api.CodeJobNotDone && try < 50; try++ {
		r.doneRaces.Add(1)
		time.Sleep(pollInterval)
		d, err = c.WaitDiagnosis(ctx, info.ID)
	}
	return d, err
}

// seed diagnoses the plan's set-up inputs in order with one client and
// scores the scenario-matrix diagnoses against their committed
// baselines. Wrong answers are kept: they count against fail_ratio.
func (r *run) seed(ctx context.Context) error {
	c := r.cl.newClient()
	defer c.Close()
	scorer := llm.NewSim()
	distinct := make(map[string]bool)
	for i, in := range r.plan.seed {
		res := result{idx: -1 - i, job: job{in: in, mode: r.plan.seedMode, want: wantNew}, start: time.Now()}
		res.diag, res.err = r.submit(ctx, c, res.job, i)
		res.end = time.Now()
		if res.err != nil {
			return fmt.Errorf("seed %s: %w", in.name(), res.err)
		}
		if sc := in.base.scenario; sc != nil && in.tag == "" {
			score, err := eval.ScoreDiagnosis(scorer, "", sc.Expected, res.diag.Text)
			if err != nil {
				return fmt.Errorf("score %s: %w", sc.Name, err)
			}
			if score < sc.Baseline {
				res.err = fmt.Errorf("scenario %s scored %.3f, committed baseline %.3f", sc.Name, score, sc.Baseline)
			}
		}
		// Window repeats are checked against the digest worked out here,
		// single-threaded, from the harness's own copy of the log.
		if _, err := in.wantDigest(); err != nil {
			return err
		}
		distinct[res.diag.Digest] = true
		r.seeded = append(r.seeded, res)
	}
	if len(distinct) > 0 {
		return r.cl.settle(len(distinct))
	}
	return nil
}

// usage is the process's resource reading at one instant.
type usage struct {
	at        time.Time
	cpu       time.Duration // user + system, whole process, harness included
	allocated uint64        // runtime.MemStats.TotalAlloc
	heapInuse uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		at:        time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocated: m.TotalAlloc,
		heapInuse: m.HeapInuse,
	}
}

// window is one stretch of load: its results and the resource readings
// at its slice boundaries.
type window struct {
	results []result // completed inside the window, in completion order
	marks   []usage  // slices+1 readings
	before  []api.Metrics
	after   []api.Metrics
	journal int64 // journal bytes written
}

// nextJob submits the next job of the plan and waits for its answer.
func (r *run) nextJob(ctx context.Context, c *client.Client) (result, error) {
	i := int(r.next.Add(1) - 1)
	j, ok := r.plan.pick(i)
	if !ok {
		return result{}, errOutOfInputs
	}
	res := result{idx: i, job: j, start: time.Now()}
	res.diag, res.err = r.submit(ctx, c, j, i)
	res.end = time.Now()
	return res, nil
}

// drive runs n closed-loop clients until the deadline or until maxJobs
// submissions have been issued (0 = no limit).
func (r *run) drive(ctx context.Context, n int, d time.Duration, maxJobs int) ([]result, error) {
	deadline := time.Now().Add(d)
	var issued atomic.Int64
	var mu sync.Mutex
	var out []result
	var firstErr error
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.cl.newClient()
			defer c.Close()
			var mine []result
			var err error
			for err == nil && time.Now().Before(deadline) && ctx.Err() == nil {
				if maxJobs > 0 && issued.Add(1) > int64(maxJobs) {
					break
				}
				var res result
				if res, err = r.nextJob(ctx, c); err == nil {
					mine = append(mine, res)
				}
			}
			mu.Lock()
			out = append(out, mine...)
			if err != nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].end.Before(out[b].end) })
	return out, firstErr
}

// pairedPass drives one client through up to 2×pairs jobs, half of them
// traced, in a shuffled order: both halves see the same stretch of the
// box's weather and, on average, the same inputs and entry points (a
// fixed alternation would send every streamed job to one half and every
// chunked one to the other). The traced jobs are the traces' roots.
func (r *run) pairedPass(ctx context.Context, rng *rand.Rand, d time.Duration, pairs int) (plain, traced []result, err error) {
	c := r.cl.newClient()
	defer c.Close()
	defer r.tracer.on.Store(false)
	trace := make([]bool, 2*pairs)
	for k := range trace {
		trace[k] = k%2 == 1
	}
	rng.Shuffle(len(trace), func(i, j int) { trace[i], trace[j] = trace[j], trace[i] })
	deadline := time.Now().Add(d)
	for _, on := range trace {
		if !time.Now().Before(deadline) || ctx.Err() != nil {
			break
		}
		r.tracer.on.Store(on)
		res, err := r.nextJob(ctx, c)
		if err != nil {
			return nil, nil, err
		}
		if on {
			r.tracer.record(spanClientJob, res.start, res.end)
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
	}
	return plain, traced, nil
}

// measure runs one window of d, cut into equal slices, under `clients`
// callers, reading process usage at every slice boundary and the fleet's
// counters at both ends. A job-limited window (maxJobs > 0) is one slice
// that ends with its last job.
func (r *run) measure(ctx context.Context, d time.Duration, slices, maxJobs int) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = r.cl.scrape(ctx); err != nil {
		return nil, err
	}
	journal := r.cl.journalBytes()
	runtime.GC() // every window starts from a collected heap

	first := readUsage()
	marks := make(chan []usage, 1)
	stop := make(chan struct{})
	go func() {
		got := []usage{first}
		for k := 1; k <= slices; k++ {
			select {
			case <-time.After(time.Until(first.at.Add(d * time.Duration(k) / time.Duration(slices)))):
			case <-stop: // a job-limited window ended early
			}
			got = append(got, readUsage())
		}
		marks <- got
	}()
	results, derr := r.drive(ctx, clients, d, maxJobs)
	close(stop)
	w.marks = <-marks
	if derr != nil {
		return nil, derr
	}
	end := w.marks[slices].at
	for _, res := range results {
		if !res.end.After(end) { // a job still in flight at the end is not counted
			w.results = append(w.results, res)
		}
	}
	if w.after, err = r.cl.scrape(ctx); err != nil {
		return nil, err
	}
	w.journal = r.cl.journalBytes() - journal
	return w, nil
}

// counters sums the fleet's counter deltas over the window. Each delta
// is taken per node and per model before summing, so a counter that did
// not move contributes exactly zero.
func (w *window) counters() counters {
	var c counters
	for i, after := range w.after {
		before := w.before[i]
		c.Submitted += float64(after.Submitted - before.Submitted)
		c.ExactHits += float64(after.CacheHits + after.Coalesced - before.CacheHits - before.Coalesced)
		c.Misses += float64(after.CacheMisses - before.CacheMisses)
		c.SemHits += float64(after.SemCacheHits - before.SemCacheHits)
		c.SemRejects += float64(after.SemCacheGateRejects - before.SemCacheGateRejects)
		c.Retries += float64(after.Retries - before.Retries)
		c.TierEscalations += float64(after.TierEscalations - before.TierEscalations)
		c.CheapJobs += float64(after.Tiers[llm.GPT4oMini].Jobs - before.Tiers[llm.GPT4oMini].Jobs)
		c.FrontierJobs += float64(after.Tiers[llm.GPT4o].Jobs - before.Tiers[llm.GPT4o].Jobs)
		for model, mm := range after.Models {
			was := before.Models[model]
			c.LLMCalls += float64(mm.Calls - was.Calls)
			c.LLMTokens += float64(mm.PromptTokens + mm.CompletionTokens - was.PromptTokens - was.CompletionTokens)
			c.LLMCostUSD += mm.CostUSD - was.CostUSD
		}
		if h, was := after.Handoff, before.Handoff; h != nil && was != nil {
			c.ReplicaPushed += float64(h.ReplicaPushed - was.ReplicaPushed)
			c.PushErrors += float64(h.PushErrors - was.PushErrors)
		}
	}
	return c
}

// verify checks every response and returns the wrong answers by job
// index. Checked on every job: no error, a report, the provenance the
// workload demands, a digest never reported before for a never-seen
// trace and the seeded one for a repeat, and no cross-modality reuse.
// Checked on a sample of never-seen jobs (at most digestSamples, at most
// a second of work): the echoed digest equals the one the harness
// derives from its own copy of the log — deriving it for every job would
// cost more than the window.
func (r *run) verify(results []result) map[int]string {
	const digestSamples = 256
	bad := make(map[int]string)
	fail := func(res result, format string, args ...any) {
		if _, failed := bad[res.idx]; !failed {
			bad[res.idx] = fmt.Sprintf("job %d (%s): %s", res.idx, res.job.in.name(), fmt.Sprintf(format, args...))
		}
	}
	fresh := 0
	for _, res := range results {
		if res.err == nil && res.job.want != wantHit {
			fresh++
		}
	}
	every := max(1, fresh/digestSamples)
	checkUntil := time.Now().Add(time.Second)
	k := 0
	for _, res := range results {
		d := res.diag
		switch {
		case res.err != nil:
			fail(res, "%v", res.err)
			continue
		case d.Text == "":
			fail(res, "empty report")
		case d.CacheHit && d.SimilarityHit:
			fail(res, "both cache_hit and similarity_hit")
		case res.job.want == wantHit && !d.CacheHit:
			fail(res, "repeat not served from the exact cache")
		case res.job.want == wantFresh && (d.CacheHit || d.SimilarityHit):
			fail(res, "served by reuse (cache_hit=%t similarity_hit=%t), want a fresh diagnosis", d.CacheHit, d.SimilarityHit)
		case res.job.want == wantNew && d.CacheHit:
			fail(res, "never-seen trace answered as an exact hit")
		}
		mod := res.job.in.base.modality
		if res.job.want == wantHit {
			if want, _ := res.job.in.wantDigest(); d.Digest != want {
				fail(res, "digest %.12s, want %.12s", d.Digest, want)
			}
		} else {
			if _, seen := r.modality[d.Digest]; seen {
				fail(res, "digest %.12s was already reported for another trace", d.Digest)
			}
			if k++; k%every == 0 && time.Now().Before(checkUntil) {
				if want, err := res.job.in.wantDigest(); err != nil || d.Digest != want {
					fail(res, "digest %.12s, want %.12s (%v)", d.Digest, want, err)
				}
			}
		}
		r.modality[d.Digest] = mod
		if d.SimilarityHit && r.modality[d.SourceDigest] != mod {
			fail(res, "%s trace served the diagnosis of a %q trace", mod, r.modality[d.SourceDigest])
		}
	}
	return bad
}
