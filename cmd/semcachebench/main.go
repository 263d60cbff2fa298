// Command semcachebench measures what semantic result reuse and the
// cost-aware model-tier ladder buy over exact-match caching, and writes
// the numbers to a JSON file (BENCH_semcache.json in CI).
//
// The workload models a production trait the exact-match cache cannot
// exploit: the same application resubmits near-identical traces whose
// content digests differ (timestamps, job IDs, metadata) while the I/O
// profile — the thing being diagnosed — is unchanged. The bench takes a
// set of base traces from the labeled tracebench suite and derives
// several near-duplicate variants of each (the text rendering plus one
// extra metadata line: a new digest, the same profile).
//
// Two pools diagnose the identical submission sequence:
//
//   - baseline: exact-match cache only, every variant is a miss and runs
//     the full pipeline on the frontier model;
//   - semcache: similarity index + confidence gate + a cheap-first model
//     ladder (-tier-models equivalent), so variants are served from their
//     base's diagnosis and fresh work starts on the cheap rung.
//
// Reported per pool: wall time, p95 latency, LLM spend, $/diagnosis, and
// the fraction of submissions served without a frontier-model call.
//
// Usage:
//
//	semcachebench [-out BENCH_semcache.json] [-bases 8] [-variants 4]
//	              [-workers 4]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/ioagent"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
	"ioagent/internal/tracebench"
)

type poolReport struct {
	WallMs              float64 `json:"wall_ms"`
	LatencyP95Ms        float64 `json:"latency_p95_ms"`
	LLMCalls            int64   `json:"llm_calls"`
	CostUSD             float64 `json:"cost_usd"`
	CostPerDiagnosisUSD float64 `json:"cost_per_diagnosis_usd"`
	SimilarityHits      int64   `json:"similarity_hits"`
	GateRejects         int64   `json:"gate_rejects"`
	FrontierJobs        int64   `json:"frontier_jobs"`
	// ServedWithoutFrontier is the fraction of submissions that never
	// paid a frontier-model diagnosis: similarity hits plus fresh jobs
	// the cheap rung's self-check kept from escalating.
	ServedWithoutFrontier float64 `json:"served_without_frontier"`
}

type report struct {
	Bases           int        `json:"bases"`
	VariantsPerBase int        `json:"variants_per_base"`
	Submissions     int        `json:"submissions"`
	FrontierModel   string     `json:"frontier_model"`
	CheapModel      string     `json:"cheap_model"`
	Baseline        poolReport `json:"baseline"`
	SemCache        poolReport `json:"semcache"`
}

func main() {
	out := flag.String("out", "BENCH_semcache.json", "output JSON path")
	bases := flag.Int("bases", 8, "distinct base traces from the labeled suite")
	variants := flag.Int("variants", 4, "near-duplicate variants derived per base")
	workers := flag.Int("workers", 4, "pool workers")
	flag.Parse()

	suite := tracebench.Suite()
	if *bases > len(suite) {
		*bases = len(suite)
	}
	baseLogs := make([]*darshan.Log, 0, *bases)
	variantLogs := make([]*darshan.Log, 0, *bases**variants)
	for i := 0; i < *bases; i++ {
		b := suite[i].Log()
		baseLogs = append(baseLogs, b)
		for v := 0; v < *variants; v++ {
			variantLogs = append(variantLogs, nearDuplicate(b, fmt.Sprintf("%s-v%d", suite[i].Name, v)))
		}
	}

	index := knowledge.BuildIndex()
	rep := report{
		Bases: *bases, VariantsPerBase: *variants,
		Submissions:   len(baseLogs) + len(variantLogs),
		FrontierModel: llm.GPT4o, CheapModel: llm.GPT4oMini,
	}

	rep.Baseline = run(fleet.Config{
		Workers: *workers,
		Agent:   ioagent.Options{Index: index},
	}, baseLogs, variantLogs)

	rep.SemCache = run(fleet.Config{
		Workers:    *workers,
		Agent:      ioagent.Options{Index: index},
		SemCache:   true,
		TierModels: []string{llm.GPT4oMini, llm.GPT4o},
	}, baseLogs, variantLogs)

	if rep.SemCache.ServedWithoutFrontier < 0.5 {
		log.Printf("semcachebench: WARNING: only %.0f%% of submissions avoided the frontier model (target >= 50%%)",
			100*rep.SemCache.ServedWithoutFrontier)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// nearDuplicate derives a trace with a new content digest and an identical
// I/O profile: the text rendering plus one metadata line the profile
// ignores — the resubmitted-run shape the similarity cache exists for.
func nearDuplicate(l *darshan.Log, variant string) *darshan.Log {
	text, err := darshan.TextString(l)
	if err != nil {
		log.Fatal(err)
	}
	dup, err := darshan.ParseText(strings.NewReader(text + "# metadata: bench_variant = " + variant + "\n"))
	if err != nil {
		log.Fatal(err)
	}
	return dup
}

// run submits bases (waiting for all, so their diagnoses are cached and
// indexed) and then all variants, against a pool built from cfg.
func run(cfg fleet.Config, baseLogs, variantLogs []*darshan.Log) poolReport {
	pool := fleet.New(llm.NewSim(), cfg)
	defer pool.Close()

	start := time.Now()
	submitAll(pool, baseLogs)
	submitAll(pool, variantLogs)
	wall := time.Since(start)

	m := pool.Metrics()
	byModel := pool.StatsByModel()
	var calls int64
	var cost float64
	for _, st := range byModel {
		calls += int64(st.Calls)
		cost += st.CostUSD
	}
	submissions := int64(len(baseLogs) + len(variantLogs))
	frontier := int64(0)
	if len(cfg.TierModels) > 0 {
		frontier = m.Tiers[llm.GPT4o].Jobs
	} else {
		// The plain pool diagnoses every cache miss on the frontier model.
		frontier = m.CacheMisses
	}
	return poolReport{
		WallMs:                float64(wall) / float64(time.Millisecond),
		LatencyP95Ms:          float64(m.LatencyP95) / float64(time.Millisecond),
		LLMCalls:              calls,
		CostUSD:               cost,
		CostPerDiagnosisUSD:   cost / float64(submissions),
		SimilarityHits:        m.SemCacheHits,
		GateRejects:           m.SemCacheGateRejects,
		FrontierJobs:          frontier,
		ServedWithoutFrontier: float64(submissions-frontier) / float64(submissions),
	}
}

func submitAll(pool *fleet.Pool, logs []*darshan.Log) {
	jobs := make([]*fleet.Job, 0, len(logs))
	for _, l := range logs {
		j, err := pool.Submit(l)
		if err != nil {
			log.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if _, err := j.Wait(); err != nil {
			log.Fatal(err)
		}
	}
}
