package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ioagent/internal/fleet/api"
)

// options are one invocation's settings.
type options struct {
	Seed    int64
	Seconds int    // length of the measured window
	Trace   bool   // the traced run: per-layer metrics instead of end-to-end
	Tiny    bool   // smoke-test sizes: a few bases, phases limited by job count
	OutDir  string // result files, span dumps and the clusters' state directories
}

// report is one workload's outcome in one run.
type report struct {
	Workload  string    `json:"workload"`
	Profile   string    `json:"profile"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Problems  []string  `json:"problems,omitempty"` // wrong answers and isolation failures
	Metrics   metricSet `json:"metrics"`
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// sliceLength is the length of the slices an end-to-end window is cut
// into.
const sliceLength = time.Second

// phases are the lengths of a run's stages. A timed run derives them
// from -seconds; a tiny run limits every stage by job count instead.
type phases struct {
	warm, window, pass, replay time.Duration
	warmJobs, windowJobs       int // 0 = limited by time
	passJobs                   int // K: untraced/traced job pairs in the one-client pass
	replayOps                  int // per replayed function
	slices, setups             int
}

func (o options) phases(w *workload) phases {
	s := time.Duration(o.Seconds) * time.Second
	p := phases{warm: min(2*time.Second, s/8), window: s, slices: int(s / sliceLength), setups: 3, passJobs: 150, replayOps: 30}
	if w == hitSmall {
		p.passJobs = 300
	}
	if o.Trace {
		// One run's worth of time, split: an untraced window for the free
		// counters, the paired one-client pass, the replay.
		p.window, p.pass, p.replay = s*2/5, s*3/10, s/4
		p.setups, p.slices = 1, 1
	}
	if o.Tiny {
		p = phases{warm: time.Minute, window: time.Minute, pass: time.Minute, replay: time.Second,
			warmJobs: 4, windowJobs: 20, passJobs: 8, replayOps: 2, slices: 1, setups: 1}
	}
	return p
}

// setUp boots a fresh cluster, generates the workload's inputs from the
// seed and warms the caches the workload relies on.
func setUp(ctx context.Context, w *workload, o options, p phases) (*run, error) {
	dir, err := os.MkdirTemp(o.OutDir, "state-")
	if err != nil {
		return nil, err
	}
	r := &run{modality: make(map[string]string)}
	if o.Trace {
		r.tracer = newTracer()
	}
	if r.cl, err = bootCluster(dir, w.Profile, r.tracer); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fresh := 64
	if !o.Tiny {
		fresh = int(float64(w.freshPerSecond) * (p.warm + time.Duration(o.Seconds)*time.Second).Seconds())
	}
	if r.plan, err = w.plan(newGen(w.Name, o.Seed), fresh, o.Tiny); err == nil {
		err = r.seed(ctx)
	}
	if err != nil {
		r.cl.close()
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	return r, nil
}

// runWorkload measures one workload: set-up (repeated, so setup_s is a
// median), warm-up, then either the sliced window (end-to-end metrics)
// or the traced run (per-layer metrics). Temp state is removed on every
// path.
func runWorkload(ctx context.Context, w *workload, o options) (*report, error) {
	p := o.phases(w)
	var r *run
	var setups []float64
	for k := 0; k < p.setups; k++ {
		if r != nil {
			r.cl.close()
		}
		start := time.Now()
		var err error
		if r, err = setUp(ctx, w, o, p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.cl.close()

	rep := &report{Workload: w.Name, Profile: w.Profile.Name, Metrics: metricSet{}}
	all := append([]result(nil), r.seeded...)
	warm, err := r.drive(ctx, clients, p.warm, p.warmJobs)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.Name, err)
	}
	all = append(all, warm...)
	win, err := r.measure(ctx, p.window, p.slices, p.windowJobs)
	if err != nil {
		return nil, fmt.Errorf("%s: window: %w", w.Name, err)
	}
	all = append(all, win.results...)

	var plain, traced []result
	var spans []span
	if o.Trace {
		if plain, traced, err = r.pairedPass(ctx, rand.New(rand.NewSource(o.Seed)), p.pass, p.passJobs); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.Name, err)
		}
		all = append(append(all, plain...), traced...)
		time.Sleep(20 * time.Millisecond) // let replication spans of the last job land
		spans = link(r.tracer.take())
	}

	// Every response of the run is checked, set-up and warm-up included.
	bad := r.verify(all)
	rep.Attempted, rep.Failed = len(all), len(bad)
	const keep = 50 // of a broken run's wrong answers; the count is in Failed
	for k, idx := range slices.Sorted(maps.Keys(bad)) {
		if k == keep {
			rep.Problems = append(rep.Problems, fmt.Sprintf("… and %d more wrong answers", len(bad)-keep))
			break
		}
		rep.Problems = append(rep.Problems, bad[idx])
	}
	c := win.counters()
	for _, problem := range w.isolated(c, win.results) {
		rep.Problems = append(rep.Problems, w.Name+" is not isolated: "+problem)
	}

	if !o.Trace {
		endToEndMetrics(rep.Metrics, win, bad, setups)
		return rep, nil
	}
	freeMetrics(rep.Metrics, w, win, c, bad, r.jobRecords(ctx, win))
	rep.Metrics.set("fail_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)))
	rep.Metrics.set("server.done_race_retries", float64(r.doneRaces.Load()))
	spanMetrics(rep.Metrics, spans, len(traced))
	rep.Metrics.set("trace.overhead_ratio", ratio(median(latencies(traced, nil)), median(latencies(plain, nil))))
	if err := r.checkpointMetrics(rep.Metrics); err != nil {
		return nil, err
	}
	if err := replayMetrics(rep.Metrics, r, p, win.results); err != nil {
		return nil, fmt.Errorf("%s: replay: %w", w.Name, err)
	}
	if err := writeSpans(filepath.Join(o.OutDir, "spans-"+w.Name+".json"), spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// latencies lists the client latencies of the results not in bad.
func latencies(results []result, bad map[int]string) []float64 {
	out := make([]float64, 0, len(results))
	for _, res := range results {
		if _, failed := bad[res.idx]; !failed {
			out = append(out, res.latencyMs())
		}
	}
	return out
}

// endToEndMetrics fills the five end-to-end metrics, counting only jobs
// that were answered correctly. The three timing metrics are taken per
// one-second slice and reduced by undisturbed; allocation per job does
// not depend on the box's other tenants and is taken over the whole
// window; setup_s is the median of the set-ups.
func endToEndMetrics(m metricSet, win *window, bad map[int]string, setups []float64) {
	n := len(win.marks) - 1
	throughput, p50, cpu, alloc := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	samples := 0
	for k := 0; k < n; k++ {
		from, to := win.marks[k], win.marks[k+1]
		var inSlice []result
		for _, res := range win.results {
			if res.end.After(from.at) && !res.end.After(to.at) {
				inSlice = append(inSlice, res)
			}
		}
		lats := latencies(inSlice, bad)
		jobs := float64(len(lats))
		samples += len(lats)
		throughput[k] = ratio(jobs, to.at.Sub(from.at).Seconds())
		p50[k] = median(lats)
		cpu[k] = ratio(ms(to.cpu-from.cpu), jobs)
		alloc[k] = ratio(float64(to.allocated-from.allocated)/1024, jobs)
	}
	for _, d := range endToEnd {
		switch d.Name {
		case "throughput_jobs_s":
			m.put(d.Name, value{Value: undisturbed(d, throughput), Slices: throughput})
		case "latency_p50_ms":
			m.put(d.Name, value{Value: undisturbed(d, p50), Slices: p50, Samples: samples})
		case "cpu_ms_per_job":
			m.put(d.Name, value{Value: undisturbed(d, cpu), Slices: cpu})
		case "alloc_kb_per_job":
			first, last := win.marks[0], win.marks[n]
			m.put(d.Name, value{Value: ratio(float64(last.allocated-first.allocated)/1024, float64(samples)), Slices: alloc})
		case "setup_s":
			m.put(d.Name, value{Value: median(setups), Slices: setups})
		}
	}
}

// jobRecords lists the fleet's own records (GET /v1/jobs through the
// router) of the jobs submitted during the window; their timestamps give
// queue wait and run time without a request inside the window.
func (r *run) jobRecords(ctx context.Context, win *window) []api.JobInfo {
	c := r.cl.newClient()
	defer c.Close()
	infos, err := c.Jobs(ctx)
	if err != nil {
		return nil // the two metrics read 0; the window itself already passed
	}
	from, to := win.marks[0].at, win.marks[len(win.marks)-1].at
	var out []api.JobInfo
	for _, info := range infos {
		if !info.SubmittedAt.Before(from) && !info.SubmittedAt.After(to) {
			out = append(out, info)
		}
	}
	return out
}

// freeMetrics fills the per-layer metrics that cost nothing to collect:
// counter deltas, job records, file sizes, the clients' own clocks.
func freeMetrics(m metricSet, w *workload, win *window, c counters, bad map[int]string, records []api.JobInfo) {
	jobs := c.Submitted
	m.set("llm_usd_per_job", ratio(c.LLMCostUSD, jobs))
	m.set("pool.exact_hit_ratio", ratio(c.ExactHits, jobs))
	m.set("semcache.hit_ratio", ratio(c.SemHits, jobs))
	m.set("semcache.gate_reject_ratio", ratio(c.SemRejects, c.SemHits+c.SemRejects))
	m.set("tiers.escalation_ratio", ratio(c.TierEscalations, c.CheapJobs))
	frontier := c.FrontierJobs
	if len(w.Profile.Tiers) == 0 {
		frontier = c.Misses - c.SemHits // no ladder: every fresh diagnosis is the frontier model's
	}
	m.set("tiers.frontier_job_ratio", ratio(frontier, jobs))
	m.set("llm.calls_per_job", ratio(c.LLMCalls, jobs))
	m.set("llm.tokens_per_job", ratio(c.LLMTokens, jobs))
	m.set("pool.retries_per_job", ratio(c.Retries, jobs))
	m.set("store.journal_bytes_per_job", ratio(float64(win.journal), jobs))
	m.set("roster.replica_pushed_per_job", ratio(c.ReplicaPushed, jobs))
	m.set("roster.push_errors", c.PushErrors)

	var wait, runMs []float64
	for _, info := range records {
		if !info.StartedAt.IsZero() && !info.FinishedAt.IsZero() {
			wait = append(wait, ms(info.StartedAt.Sub(info.SubmittedAt)))
			runMs = append(runMs, ms(info.FinishedAt.Sub(info.StartedAt)))
		}
	}
	m.setSampled("pool.queue_wait_ms_p50", median(wait), len(wait))
	m.setSampled("pool.run_ms_p50", median(runMs), len(runMs))

	var wire float64
	var heap uint64
	for _, res := range win.results {
		wire += float64(res.job.in.size())
	}
	for _, u := range win.marks {
		heap = max(heap, u.heapInuse)
	}
	secs := win.marks[len(win.marks)-1].at.Sub(win.marks[0].at).Seconds()
	m.set("ingest.wire_mb_s", ratio(wire/1e6, secs))
	m.set("harness.heap_peak_mb", float64(heap)/1e6)
	lats := latencies(win.results, bad)
	m.setSampled("client.latency_p95_ms", percentileOrZero(lats, 95), len(lats))
	m.setSampled("client.latency_p99_ms", percentileOrZero(lats, 99), len(lats))
}

// spanMetrics fills the per-layer metrics of the traced pass.
func spanMetrics(m metricSet, spans []span, jobs int) {
	self := selfTimes(spans)
	type perJob struct{ router, routerSelf, submit, poll, pool float64 }
	byJob := make(map[int]*perJob)
	byName := make(map[string][]span)
	var rootDur, rootSelf, requests float64
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Trace == 0 {
			continue
		}
		j := byJob[s.Trace]
		if j == nil {
			j = &perJob{}
			byJob[s.Trace] = j
		}
		d := float64(s.dur()) / 1e6
		switch s.Name {
		case spanClientJob:
			rootDur += d
			rootSelf += float64(self[s.ID]) / 1e6
		case spanRouter:
			j.router += d
			j.routerSelf += float64(self[s.ID]) / 1e6
		case spanSubmit:
			j.submit += d
			requests++
		case spanPoll:
			j.poll += d
			requests++
		case spanPoolJob:
			j.pool += d
		}
	}
	var router, routerSelf, submit, poll, pool []float64
	for _, j := range byJob {
		router, routerSelf = append(router, j.router), append(routerSelf, j.routerSelf)
		submit, poll, pool = append(submit, j.submit), append(poll, j.poll), append(pool, j.pool)
	}
	n := float64(jobs)
	m.setSampled("router.handle_ms_p50", median(router), len(router))
	m.setSampled("router.self_ms_p50", median(routerSelf), len(routerSelf))
	m.setSampled("server.submit_ms_p50", median(submit), len(submit))
	m.setSampled("server.poll_ms_p50", median(poll), len(poll))
	m.set("server.requests_per_job", ratio(requests, n))
	m.setSampled("pool.submit_to_done_ms_p50", median(pool), len(pool))
	// Busy = the time at least one call was in progress: filter calls run
	// in parallel, and the agent's own time is what is left of a diagnosis
	// once this is taken out.
	m.set("llm.busy_ms_per_job", ratio(float64(unionNs(byName[spanLLM]))/1e6, n))
	m.set("ioagent.retrieve_ms_per_job", ratio(float64(unionNs(byName[spanRetrieve]))/1e6, n))
	m.set("ioagent.retrieve_calls_per_job", ratio(float64(len(byName[spanRetrieve])), n))
	m.set("store.journal_append_ms_per_job", ratio(float64(sumNs(byName[spanJournal]))/1e6, n))
	m.set("roster.replicate_hook_ms_per_job", ratio(float64(sumNs(byName[spanReplicate]))/1e6, n))
	// The share of client latency some layer's span accounts for; the
	// rest is the SDK, loopback HTTP and poll sleeps, outside any layer.
	m.set("trace.coverage_ratio", 1-ratio(rootSelf, rootDur))
}

func sumNs(spans []span) (total int64) {
	for _, s := range spans {
		total += s.dur()
	}
	return total
}

func unionNs(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans {
		lo, hi = min(lo, s.Start), max(hi, s.End)
	}
	return covered(append([]span(nil), spans...), lo, hi)
}

// checkpointMetrics times Store.Checkpoint on both nodes after the
// load: what a restart path would pay, no window metric.
func (r *run) checkpointMetrics(m metricSet) error {
	var took time.Duration
	var size int64
	for _, n := range r.cl.nodes {
		start := time.Now()
		if err := n.store.Checkpoint(n.pool); err != nil {
			return fmt.Errorf("checkpoint %s: %w", n.id, err)
		}
		took += time.Since(start)
		if fi, err := os.Stat(filepath.Join(n.store.Dir(), "snapshot.json")); err == nil {
			size += fi.Size()
		}
	}
	m.set("store.checkpoint_ms", ms(took))
	m.set("store.snapshot_bytes", float64(size))
	return nil
}
