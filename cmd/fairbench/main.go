// Command fairbench measures what the per-tenant fair scheduler is for: a
// light interactive tenant staying responsive while a noisy tenant floods
// the same lane. It writes the numbers to a JSON file (BENCH_fair.json in
// CI).
//
// Three measured phases against live in-process pools:
//
//   - interactive (run twice, DRR then FIFO baseline): a noisy bronze
//     tenant dumps a large backlog, then a light gold tenant submits
//     paced single jobs — the interactive pattern. Reported per tenant:
//     queue age (submit→worker pickup) p50/p95/max. The headline number
//     is the light tenant's p95 improvement, FIFO over DRR.
//   - share: both tenants hold sustained backlogs and the realized
//     dequeue split is sampled the moment the light tenant's queue
//     drains. Under weighted DRR it must track the configured
//     gold:bronze weight ratio (8:1), not the 2:1 backlog ratio.
//   - admission: with -slo-admission semantics on, a gold tenant floods
//     a slow pool past its own 2s queue-age target; once the oldest
//     queued job is over target, probe submissions must refuse with the
//     retryable slo_exceeded error instead of joining a queue that
//     already broke its promise.
//
// Usage:
//
//	fairbench [-out BENCH_fair.json] [-workers 4] [-api-latency 10ms]
//	          [-noisy 160] [-light 20] [-light-every 100ms] [-enforce]
//
// With -enforce the run exits non-zero unless the light tenant's p95
// queue age improves at least 5x under DRR and the realized dequeue
// share lands within 10% of the configured weights — the CI fence for
// the fairness layer.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/ioagent"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
	"ioagent/internal/scenario"
)

const (
	lightTenant = "acme-interactive" // gold: weight 8, 2s queue-age target
	noisyTenant = "batchfarm"        // bronze: weight 1, 60s target
)

// ages is one tenant's measured queue-age distribution.
type ages struct {
	Jobs  int     `json:"jobs"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	MaxMs float64 `json:"max_ms"`
}

// interactivePhase is one flood-vs-paced-tenant run.
type interactivePhase struct {
	FIFO  bool `json:"fifo"`
	Light ages `json:"light"`
	Noisy ages `json:"noisy"`
}

// sharePhase is the sustained-contention dequeue split.
type sharePhase struct {
	LightDequeues int64   `json:"light_dequeues"`
	NoisyDequeues int64   `json:"noisy_dequeues"`
	LightShare    float64 `json:"light_share"`
	ExpectedShare float64 `json:"expected_share"`
}

// admissionPhase is the over-target refusal check.
type admissionPhase struct {
	FloodAdmitted  int   `json:"flood_admitted"`
	FloodRejected  int   `json:"flood_rejected"`
	Probes         int   `json:"probes"`
	ProbesRejected int   `json:"probes_rejected"`
	SchedRejects   int64 `json:"sched_rejects"`
}

type report struct {
	Workers      int              `json:"workers"`
	APILatencyMs float64          `json:"api_latency_ms"`
	LightClass   string           `json:"light_class"`
	NoisyClass   string           `json:"noisy_class"`
	DRR          interactivePhase `json:"drr"`
	FIFOBaseline interactivePhase `json:"fifo_baseline"`
	LightP95Gain float64          `json:"light_p95_gain"` // fifo p95 / drr p95
	Share        sharePhase       `json:"share"`
	Admission    admissionPhase   `json:"admission"`
}

func main() {
	out := flag.String("out", "BENCH_fair.json", "output JSON path")
	workers := flag.Int("workers", 4, "pool workers")
	apiLatency := flag.Duration("api-latency", 10*time.Millisecond, "simulated model API round trip (the per-job service time)")
	noisyN := flag.Int("noisy", 160, "noisy-tenant backlog per interactive run")
	lightN := flag.Int("light", 20, "paced light-tenant submissions per interactive run")
	lightEvery := flag.Duration("light-every", 100*time.Millisecond, "light-tenant submission pacing")
	enforce := flag.Bool("enforce", false, "exit non-zero below a 5x light-tenant p95 gain or a dequeue share off the weights by >10%")
	flag.Parse()

	logs := newLogSource()
	rep := report{
		Workers:      *workers,
		APILatencyMs: float64(*apiLatency) / float64(time.Millisecond),
		LightClass:   "gold",
		NoisyClass:   "bronze",
	}

	rep.DRR = runInteractive(logs, false, *workers, *apiLatency, *noisyN, *lightN, *lightEvery)
	rep.FIFOBaseline = runInteractive(logs, true, *workers, *apiLatency, *noisyN, *lightN, *lightEvery)
	if rep.DRR.Light.P95Ms > 0 {
		rep.LightP95Gain = rep.FIFOBaseline.Light.P95Ms / rep.DRR.Light.P95Ms
	}
	rep.Share = runShare(logs, *workers, *apiLatency)
	rep.Admission = runAdmission(logs)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)

	if *enforce {
		if rep.LightP95Gain < 5 {
			log.Fatalf("fairbench: light-tenant p95 gain %.1fx below the 5x fence (drr %.1fms, fifo %.1fms)",
				rep.LightP95Gain, rep.DRR.Light.P95Ms, rep.FIFOBaseline.Light.P95Ms)
		}
		if dev := rep.Share.LightShare/rep.Share.ExpectedShare - 1; dev < -0.1 || dev > 0.1 {
			log.Fatalf("fairbench: realized light share %.3f deviates %.0f%% from the configured %.3f (>10%% fence)",
				rep.Share.LightShare, dev*100, rep.Share.ExpectedShare)
		}
		if rep.Admission.ProbesRejected < rep.Admission.Probes {
			log.Fatalf("fairbench: only %d/%d over-target probes were refused", rep.Admission.ProbesRejected, rep.Admission.Probes)
		}
	}
}

// newPool builds a fairness-configured pool: gold light tenant, bronze
// noisy tenant, cache off so every job queues and is diagnosed fresh.
func newPool(fifo, admission bool, workers int, latency time.Duration, queue int) *fleet.Pool {
	return fleet.New(llm.WithLatency(llm.NewSim(), latency), fleet.Config{
		Workers:    workers,
		QueueDepth: queue,
		CacheSize:  -1,
		Agent:      ioagent.Options{Index: knowledge.BuildIndex()},
		TenantClasses: map[string]string{
			lightTenant: "gold",
			noisyTenant: "bronze",
		},
		SchedFIFO:    fifo,
		SLOAdmission: admission,
	})
}

// runInteractive floods the pool as the noisy tenant, then paces single
// light-tenant submissions through the same lane and measures every
// job's queue age (submit → worker pickup).
func runInteractive(logs *logSource, fifo bool, workers int, latency time.Duration, noisyN, lightN int, pace time.Duration) interactivePhase {
	pool := newPool(fifo, false, workers, latency, noisyN+lightN+16)
	defer pool.Close()

	jobs := make(map[string][]*fleet.Job, 2)
	for i := 0; i < noisyN; i++ {
		j, err := pool.SubmitPreparsed(context.Background(), fleet.Preparsed{Log: logs.next()}, fleet.SubmitOpts{Tenant: noisyTenant})
		if err != nil {
			log.Fatalf("fairbench: noisy submit %d: %v", i, err)
		}
		jobs[noisyTenant] = append(jobs[noisyTenant], j)
	}
	for i := 0; i < lightN; i++ {
		time.Sleep(pace)
		j, err := pool.SubmitPreparsed(context.Background(), fleet.Preparsed{Log: logs.next()}, fleet.SubmitOpts{Tenant: lightTenant})
		if err != nil {
			log.Fatalf("fairbench: light submit %d: %v", i, err)
		}
		jobs[lightTenant] = append(jobs[lightTenant], j)
	}

	ph := interactivePhase{FIFO: fifo}
	ph.Noisy = measure(jobs[noisyTenant])
	ph.Light = measure(jobs[lightTenant])
	return ph
}

// runShare keeps both tenants backlogged (2:1 in the noisy tenant's
// favor) and samples the realized dequeue split the instant the light
// tenant's queue drains — the window where DRR's weight ratio, not the
// backlog ratio, must decide who gets the workers.
func runShare(logs *logSource, workers int, latency time.Duration) sharePhase {
	const lightJobs, noisyJobs = 120, 240
	pool := newPool(false, false, workers, latency, lightJobs+noisyJobs+16)
	defer pool.Close()

	var all []*fleet.Job
	// Interleave the submissions so both tenants are active from the
	// first dequeue on.
	for i := 0; i < noisyJobs; i++ {
		j, err := pool.SubmitPreparsed(context.Background(), fleet.Preparsed{Log: logs.next()}, fleet.SubmitOpts{Tenant: noisyTenant})
		if err != nil {
			log.Fatalf("fairbench: share noisy submit: %v", err)
		}
		all = append(all, j)
		if i < lightJobs {
			j, err := pool.SubmitPreparsed(context.Background(), fleet.Preparsed{Log: logs.next()}, fleet.SubmitOpts{Tenant: lightTenant})
			if err != nil {
				log.Fatalf("fairbench: share light submit: %v", err)
			}
			all = append(all, j)
		}
	}

	var ph sharePhase
	st := pool.SchedStatus()
	gold, bronze := st.Classes["gold"].Weight, st.Classes["bronze"].Weight
	ph.ExpectedShare = float64(gold) / float64(gold+bronze)
	for {
		m := pool.Metrics().Sched
		lt := m.Tenants[lightTenant]
		if lt.Depth == 0 && lt.Dequeues >= lightJobs {
			ph.LightDequeues = lt.Dequeues
			ph.NoisyDequeues = m.Tenants[noisyTenant].Dequeues
			break
		}
		time.Sleep(time.Millisecond)
	}
	if total := ph.LightDequeues + ph.NoisyDequeues; total > 0 {
		ph.LightShare = float64(ph.LightDequeues) / float64(total)
	}
	for _, j := range all {
		<-j.Done()
	}
	return ph
}

// runAdmission floods a deliberately slow single-worker pool as a gold
// tenant until the oldest queued job is past gold's 2s target, then
// probes: every probe must refuse with the retryable slo_exceeded error.
func runAdmission(logs *logSource) admissionPhase {
	const flood, probes = 60, 5
	latency := 50 * time.Millisecond
	pool := newPool(false, true, 2, latency, flood+probes+16)
	defer pool.Close()

	var ph admissionPhase
	var all []*fleet.Job
	for i := 0; i < flood; i++ {
		j, err := pool.SubmitPreparsed(context.Background(), fleet.Preparsed{Log: logs.next()}, fleet.SubmitOpts{Tenant: lightTenant})
		switch {
		case errors.Is(err, fleet.ErrSLOExceeded):
			// Projection already sees the backlog blowing the target —
			// admission cutting the flood off early is the feature.
			ph.FloodRejected++
		case err != nil:
			log.Fatalf("fairbench: admission flood %d: %v", i, err)
		default:
			ph.FloodAdmitted++
			all = append(all, j)
		}
	}

	// The flood is several seconds of backlog for two slow workers; by
	// 2.2s the queue head has been waiting past gold's 2s target.
	time.Sleep(2200 * time.Millisecond)
	for i := 0; i < probes; i++ {
		ph.Probes++
		j, err := pool.SubmitPreparsed(context.Background(), fleet.Preparsed{Log: logs.next()}, fleet.SubmitOpts{Tenant: lightTenant})
		switch {
		case errors.Is(err, fleet.ErrSLOExceeded):
			ph.ProbesRejected++
		case err != nil:
			log.Fatalf("fairbench: admission probe %d: unexpected error %v", i, err)
		default:
			all = append(all, j)
		}
	}
	ph.SchedRejects = pool.Metrics().Sched.Rejects
	for _, j := range all {
		<-j.Done()
	}
	return ph
}

// measure waits every job out and summarizes its queue age — worker
// pickup minus submission, the time the scheduler made it wait.
func measure(jobs []*fleet.Job) ages {
	lats := make([]time.Duration, 0, len(jobs))
	for _, j := range jobs {
		if _, err := j.Wait(); err != nil {
			log.Fatalf("fairbench: job %s: %v", j.ID(), err)
		}
		info := j.Info()
		lats = append(lats, info.StartedAt.Sub(info.SubmittedAt))
	}
	sort.Slice(lats, func(i, k int) bool { return lats[i] < lats[k] })
	a := ages{Jobs: len(lats)}
	if n := len(lats); n > 0 {
		a.P50Ms = float64(lats[n/2]) / float64(time.Millisecond)
		a.P95Ms = float64(lats[n*95/100]) / float64(time.Millisecond)
		a.MaxMs = float64(lats[n-1]) / float64(time.Millisecond)
	}
	return a
}

// logSource hands out darshan logs with distinct content digests: each
// call rebuilds a scenario's log and stamps a unique job ID into the
// header, which the canonical content digest covers — so no two
// submissions coalesce and every job really queues.
type logSource struct {
	scenarios []scenario.Scenario
	n         int64
}

func newLogSource() *logSource {
	var out []scenario.Scenario
	for _, sc := range scenario.Matrix() {
		if sc.Modality == "darshan" {
			out = append(out, sc)
		}
	}
	if len(out) == 0 {
		log.Fatal("fairbench: no darshan scenarios in the matrix")
	}
	return &logSource{scenarios: out}
}

func (s *logSource) next() *darshan.Log {
	sc := s.scenarios[int(s.n)%len(s.scenarios)]
	_, l := sc.Build()
	s.n++
	l.Job.JobID = 900000 + s.n
	if l.Job.Metadata == nil {
		l.Job.Metadata = map[string]string{}
	}
	l.Job.Metadata["fair_variant"] = fmt.Sprint(s.n)
	return l
}
