// Command fleetbench proves diagnosis quality under sustained fleet load
// and writes the numbers to a JSON file (BENCH_fleet.json in CI).
//
// It boots a live two-daemon cluster — two in-process pools with semantic
// reuse and the cost-aware tier ladder on, each behind a real HTTP serving
// mux, fronted by the digest-sharding router — and drives the scored
// adversarial scenario matrix (internal/scenario) through it as a client
// would: mixed trace modalities (binary Darshan counter logs and DXT
// per-operation text renderings), mixed tenants, and mixed priority lanes.
//
// Two phases per run:
//
//   - seed: every scenario's base trace is submitted and its diagnosis is
//     scored against the scenario's committed drishti label set with
//     eval.ScoreDiagnosis. With -enforce-baselines, any scenario scoring
//     below its committed baseline fails the run (exit 1) — this is the
//     CI regression fence for diagnosis quality.
//   - soak: near-duplicate variants of every scenario (new content
//     digests, unchanged I/O profiles) arrive across tenants and lanes,
//     exercising exact caching, semantic reuse, the confidence gate, and
//     the cross-modality fence under concurrency. Because the router
//     shards by content digest, a variant may land on a different node
//     than its base — similarity hit rates here are the honest
//     cluster-level number, not a single-pool best case.
//
// Reported: per-scenario scores and pass/fail, p95 latency, exact and
// similarity hit rates, gate-reject rate, per-tier job counts, LLM spend,
// and $/diagnosis.
//
// With -dump DIR, the scenario wire renderings are also written to
// DIR/<scenario>.trace for external harnesses (e2e-smoke submits them
// against real daemon binaries).
//
// Usage:
//
//	fleetbench [-out BENCH_fleet.json] [-variants 3] [-workers 2]
//	           [-dump DIR] [-enforce-baselines]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/dxt"
	"ioagent/internal/eval"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/router"
	"ioagent/internal/fleet/server"
	"ioagent/internal/ioagent"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
	"ioagent/internal/scenario"
)

type scenarioResult struct {
	Name     string  `json:"name"`
	Modality string  `json:"modality"`
	Score    float64 `json:"score"`
	Baseline float64 `json:"baseline"`
	Pass     bool    `json:"pass"`
	// VariantSimilarityHits counts soak variants of this scenario served
	// via semantic reuse (cluster-level: digest sharding may route a
	// variant away from its base's node).
	VariantSimilarityHits int `json:"variant_similarity_hits"`
	Variants              int `json:"variants"`
}

type report struct {
	Scenarios           []scenarioResult `json:"scenarios"`
	Submissions         int64            `json:"submissions"`
	LatencyP95Ms        float64          `json:"latency_p95_ms"`
	ExactHitRate        float64          `json:"exact_hit_rate"`
	SimilarityHitRate   float64          `json:"similarity_hit_rate"`
	GateRejectRate      float64          `json:"gate_reject_rate"`
	TierJobs            map[string]int64 `json:"tier_jobs"`
	LLMCostUSD          float64          `json:"llm_cost_usd"`
	CostPerDiagnosisUSD float64          `json:"cost_per_diagnosis_usd"`
	AllScenariosPass    bool             `json:"all_scenarios_pass"`
}

func main() {
	out := flag.String("out", "BENCH_fleet.json", "output JSON path")
	variants := flag.Int("variants", 3, "near-duplicate soak variants per scenario")
	workers := flag.Int("workers", 2, "workers per daemon pool")
	dump := flag.String("dump", "", "also write scenario wire renderings to this directory")
	dumpOnly := flag.Bool("dump-only", false, "write the -dump wires and exit without benchmarking (for external harnesses)")
	enforce := flag.Bool("enforce-baselines", false, "exit non-zero if any scenario scores below its committed baseline")
	flag.Parse()

	scenarios := scenario.Matrix()
	if *dump != "" {
		dumpWires(*dump, scenarios)
		if *dumpOnly {
			return
		}
	}

	// Live cluster: two daemons with semantic reuse and the tier ladder
	// on, behind the digest-sharding router.
	index := knowledge.BuildIndex()
	var pools []*fleet.Pool
	var nodes []string
	for _, id := range []string{"n1", "n2"} {
		pool := fleet.New(llm.NewSim(), fleet.Config{
			Workers:    *workers,
			NodeID:     id,
			Agent:      ioagent.Options{Index: index},
			SemCache:   true,
			TierModels: []string{llm.GPT4oMini, llm.GPT4o},
		})
		defer pool.Close()
		pools = append(pools, pool)
		srv := httptest.NewServer(server.NewMux(server.Config{Pool: pool, NodeID: id, MaxBody: 64 << 20}))
		defer srv.Close()
		nodes = append(nodes, srv.URL)
	}
	rt, err := router.New(router.Config{Members: nodes, MaxBody: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := client.New(front.URL)
	defer c.Close()

	scorer := llm.NewSim()
	rep := report{TierJobs: map[string]int64{}, AllScenariosPass: true}

	// Seed phase: one scored diagnosis per scenario.
	for _, sc := range scenarios {
		wire, _ := sc.Build()
		d, err := c.SubmitAndWait(context.Background(), api.SubmitRequest{
			Trace:  wire,
			Lane:   laneFor(len(rep.Scenarios)),
			Tenant: tenantFor(len(rep.Scenarios)),
		})
		if err != nil {
			log.Fatalf("fleetbench: seed %s: %v", sc.Name, err)
		}
		score, err := eval.ScoreDiagnosis(scorer, "", sc.Expected, d.Text)
		if err != nil {
			log.Fatalf("fleetbench: score %s: %v", sc.Name, err)
		}
		res := scenarioResult{
			Name: sc.Name, Modality: sc.Modality,
			Score: score, Baseline: sc.Baseline, Pass: score >= sc.Baseline,
			Variants: *variants,
		}
		if !res.Pass {
			rep.AllScenariosPass = false
			log.Printf("fleetbench: REGRESSION: %s scored %.3f, committed baseline %.3f", sc.Name, score, sc.Baseline)
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}

	// Soak phase: near-duplicate variants across tenants and lanes,
	// submitted concurrently.
	var wg sync.WaitGroup
	var mu sync.Mutex
	for si, sc := range scenarios {
		for v := 0; v < *variants; v++ {
			wg.Add(1)
			go func(si, v int, sc scenario.Scenario) {
				defer wg.Done()
				n := si**variants + v
				d, err := c.SubmitAndWait(context.Background(), api.SubmitRequest{
					Trace:  variantWire(sc, v),
					Lane:   laneFor(n),
					Tenant: tenantFor(n),
				})
				if err != nil {
					log.Fatalf("fleetbench: soak %s v%d: %v", sc.Name, v, err)
				}
				if d.SimilarityHit {
					mu.Lock()
					rep.Scenarios[si].VariantSimilarityHits++
					mu.Unlock()
				}
			}(si, v, sc)
		}
	}
	wg.Wait()

	// Cluster-level metrics: sums across both daemons; p95 is the worse
	// node's (a cluster is as slow as its slowest shard).
	var submitted, exact, coalesced, semHits, rejects int64
	var p95 time.Duration
	for _, pool := range pools {
		m := pool.Metrics()
		submitted += m.Submitted
		exact += m.CacheHits
		coalesced += m.Coalesced
		semHits += m.SemCacheHits
		rejects += m.SemCacheGateRejects
		if m.LatencyP95 > p95 {
			p95 = m.LatencyP95
		}
		for model, tm := range m.Tiers {
			rep.TierJobs[model] += tm.Jobs
		}
		for _, st := range pool.StatsByModel() {
			rep.LLMCostUSD += st.CostUSD
		}
	}
	rep.Submissions = submitted
	rep.LatencyP95Ms = float64(p95) / float64(time.Millisecond)
	if submitted > 0 {
		rep.ExactHitRate = float64(exact+coalesced) / float64(submitted)
		rep.SimilarityHitRate = float64(semHits) / float64(submitted)
		rep.GateRejectRate = float64(rejects) / float64(submitted)
		rep.CostPerDiagnosisUSD = rep.LLMCostUSD / float64(submitted)
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

	if *enforce && !rep.AllScenariosPass {
		log.Fatal("fleetbench: scenario regression below committed baseline")
	}
}

// laneFor and tenantFor spread submissions across priority classes and
// tenants, deterministically.
func laneFor(n int) api.Lane {
	if n%3 == 0 {
		return api.LaneBatch
	}
	return api.LaneInteractive
}

func tenantFor(n int) string {
	return [...]string{"astro-sim", "climate-ens", "genomics"}[n%3]
}

// variantWire derives a near-duplicate wire for a scenario: a new content
// digest, the same I/O profile, in the scenario's own modality.
func variantWire(sc scenario.Scenario, v int) []byte {
	_, base := sc.Build()
	if sc.Modality == "dxt" {
		// Comments do not survive canonicalization, so a metadata line
		// would collapse to the same digest; nudge every timestamp by a
		// multiple of the text-precision quantum instead.
		t := base.DXT
		shifted := &dxt.Trace{NProcs: t.NProcs, Events: append([]dxt.Event(nil), t.Events...)}
		for i := range shifted.Events {
			shifted.Events[i].Start += float64(v+1) * 2e-6
			shifted.Events[i].End += float64(v+1) * 2e-6
		}
		return []byte(dxt.TextString(shifted))
	}
	text, err := darshan.TextString(base)
	if err != nil {
		log.Fatalf("fleetbench: variant of %s: %v", sc.Name, err)
	}
	return []byte(text + fmt.Sprintf("# metadata: bench_variant = %s-v%d\n", sc.Name, v))
}

// dumpWires writes every scenario's wire rendering to dir/<name>.trace.
func dumpWires(dir string, scenarios []scenario.Scenario) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, sc := range scenarios {
		wire, _ := sc.Build()
		name := filepath.Join(dir, sc.Name+".trace")
		if err := os.WriteFile(name, wire, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	// A tiny manifest so shell harnesses can iterate without globbing
	// surprises.
	var names []string
	for _, sc := range scenarios {
		names = append(names, sc.Name)
	}
	manifest := strings.Join(names, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(manifest), 0o644); err != nil {
		log.Fatal(err)
	}
}
