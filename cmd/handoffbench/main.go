// Command handoffbench measures what the elastic-cluster layer is for:
// already-diagnosed traces staying warm while the fleet changes shape. It
// writes the numbers to a JSON file (BENCH_handoff.json in CI).
//
// It boots a live in-process elastic fleet — real pools behind real HTTP
// muxes, gossiping roster managers, successor replication on — and runs
// three measured phases:
//
//   - join: one daemon is seeded with diagnosed traces, then a second
//     daemon joins the roster mid-run. The ring diff hands the moved
//     digests to the new owner, and every moved trace is resubmitted
//     through a cluster client: the warm-hit rate is the fraction served
//     from cache (by the JOINED node) instead of recomputed.
//   - recompute baseline: the same moved traces submitted to a fresh
//     static daemon — what a join costs WITHOUT handoff (~0% warm, full
//     diagnosis latency). This is the number the join phase is up against.
//   - kill: fresh traces are diagnosed through the two-node fleet with
//     -replicate 2, so each lands warm on its owner and the successor.
//     The owner is then killed outright (listener closed, connections
//     severed, no drain) and the dead node's digests are resubmitted: the
//     cluster client fails over to the successor, which must answer warm.
//
// Reported per phase: warm hits, warm-hit rate, and p50/p95 submit
// latency, plus both nodes' fleet_handoff_* counter documents.
//
// Usage:
//
//	handoffbench [-out BENCH_handoff.json] [-seed 24] [-fresh 12]
//	             [-workers 2] [-api-latency 25ms] [-enforce]
//
// With -enforce the run exits non-zero unless the join phase stays at or
// above an 80% warm-hit rate and the kill phase serves every replicated
// digest warm — the CI fence for the elastic layer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/node"
	"ioagent/internal/fleet/ring"
	"ioagent/internal/fleet/roster"
	"ioagent/internal/ioagent"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
	"ioagent/internal/scenario"
)

type phase struct {
	Total       int     `json:"total"`
	WarmHits    int     `json:"warm_hits"`
	WarmHitRate float64 `json:"warm_hit_rate"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
}

type report struct {
	Seeded            int                           `json:"seeded"`
	MovedOnJoin       int                           `json:"moved_on_join"`
	Join              phase                         `json:"join"`
	RecomputeBaseline phase                         `json:"recompute_baseline"`
	Kill              phase                         `json:"kill"`
	Handoff           map[string]api.HandoffMetrics `json:"handoff_metrics"`
}

// startNode boots one in-process daemon through node.New; a non-nil rc
// makes it an elastic member advertising its own listener.
func startNode(id string, workers int, apiLatency time.Duration, rc *roster.Config) *node.Node {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	n, err := node.New(node.Config{
		LLM:    llm.WithLatency(llm.NewSim(), apiLatency),
		Fleet:  fleet.Config{Workers: workers, NodeID: id, Agent: ioagent.Options{Index: knowledge.BuildIndex()}},
		Roster: rc,
	}, ln)
	if err != nil {
		log.Fatal(err)
	}
	return n
}

// elastic is the roster configuration of both fleet members: fast gossip,
// every diagnosis warm on owner and successor.
func elastic(peers ...string) *roster.Config {
	return &roster.Config{
		Peers:      peers,
		Interval:   50 * time.Millisecond,
		Replicate:  2,
		ClientOpts: []client.Option{client.WithRetry(1, time.Millisecond)},
	}
}

func waitFor(what string, cond func() bool) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Fatalf("handoffbench: timed out waiting for %s", what)
}

// traceFor derives the i-th distinct trace: a darshan-modality scenario
// rendered as parser text with an index-bearing metadata line, so every i
// yields a fresh content digest over a realistic I/O profile.
func traceFor(scenarios []scenario.Scenario, i int) []byte {
	sc := scenarios[i%len(scenarios)]
	_, base := sc.Build()
	text, err := darshan.TextString(base)
	if err != nil {
		log.Fatalf("handoffbench: render %s: %v", sc.Name, err)
	}
	return []byte(text + fmt.Sprintf("# metadata: handoff_variant = %d\n", i))
}

// submitAll pushes each trace through submit, recording per-call latency
// and cache-hit provenance, and returns the measured phase.
func submitAll(traces [][]byte, submit func(trace []byte) (api.Diagnosis, error)) phase {
	var p phase
	lats := make([]time.Duration, 0, len(traces))
	for _, trace := range traces {
		start := time.Now()
		d, err := submit(trace)
		if err != nil {
			log.Fatalf("handoffbench: submit: %v", err)
		}
		lats = append(lats, time.Since(start))
		p.Total++
		if d.CacheHit {
			p.WarmHits++
		}
	}
	if p.Total > 0 {
		p.WarmHitRate = float64(p.WarmHits) / float64(p.Total)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		p.P50Ms = float64(lats[n/2]) / float64(time.Millisecond)
		p.P95Ms = float64(lats[n*95/100]) / float64(time.Millisecond)
	}
	return p
}

func main() {
	out := flag.String("out", "BENCH_handoff.json", "output JSON path")
	seedN := flag.Int("seed", 24, "traces diagnosed before the join")
	freshN := flag.Int("fresh", 12, "traces diagnosed after the join (replicated, then their owner is killed)")
	workers := flag.Int("workers", 2, "workers per daemon pool")
	apiLatency := flag.Duration("api-latency", 25*time.Millisecond, "simulated model API round trip (what a warm hit saves)")
	enforce := flag.Bool("enforce", false, "exit non-zero below an 80% join warm-hit rate or a non-perfect kill phase")
	flag.Parse()

	scenarios := darshanScenarios()

	// Phase 0 — seed: one elastic daemon diagnoses everything cold.
	n1 := startNode("n1", *workers, *apiLatency, elastic())
	c1 := client.New(n1.URL())
	seedTraces := make([][]byte, *seedN)
	digests := make([]string, *seedN)
	for i := range seedTraces {
		seedTraces[i] = traceFor(scenarios, i)
		d, err := c1.SubmitAndWait(context.Background(), api.SubmitRequest{Trace: seedTraces[i]})
		if err != nil {
			log.Fatalf("handoffbench: seed %d: %v", i, err)
		}
		if d.CacheHit {
			log.Fatalf("handoffbench: seed %d unexpectedly warm; variants must have distinct digests", i)
		}
		digests[i] = d.Digest
	}
	c1.Close()

	// Phase 1 — live join: n2 enters the roster knowing only n1; the ring
	// diff hands the moved digests over.
	n2 := startNode("n2", *workers, *apiLatency, elastic(n1.URL()))
	moved := ring.Changed(0, []string{n1.URL()}, []string{n1.URL(), n2.URL()}, digests)
	if len(moved) == 0 {
		log.Fatal("handoffbench: no digests moved on the join; ring diff is broken")
	}
	waitFor("join handoff to complete", func() bool {
		return n1.Roster.Metrics().EntriesPushed >= int64(len(moved)) &&
			n2.Roster.Metrics().EntriesReceived >= int64(len(moved))
	})

	movedSet := make(map[string]bool, len(moved))
	for _, d := range moved {
		movedSet[d] = true
	}
	movedTraces := make([][]byte, 0, len(moved))
	for i, d := range digests {
		if movedSet[d] {
			movedTraces = append(movedTraces, seedTraces[i])
		}
	}

	cluster, err := client.NewCluster([]string{n1.URL(), n2.URL()},
		client.WithRetry(1, 5*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	rep := report{Seeded: *seedN, MovedOnJoin: len(moved), Handoff: map[string]api.HandoffMetrics{}}
	rep.Join = submitAll(movedTraces, func(trace []byte) (api.Diagnosis, error) {
		return cluster.SubmitAndWait(context.Background(), api.SubmitRequest{Trace: trace})
	})

	// Phase 2 — recompute baseline: the same moved traces against a fresh
	// static daemon, i.e. a join without the handoff machinery.
	base := startNode("base", *workers, *apiLatency, nil)
	cb := client.New(base.URL())
	rep.RecomputeBaseline = submitAll(movedTraces, func(trace []byte) (api.Diagnosis, error) {
		return cb.SubmitAndWait(context.Background(), api.SubmitRequest{Trace: trace})
	})
	cb.Close()
	base.Close()

	// Phase 3 — kill the owner: fresh diagnoses replicate to the
	// successor (replicate=2 means owner + one copy on a two-node ring);
	// then the owner dies without a drain and its digests are resubmitted.
	freshTraces := make([][]byte, *freshN)
	freshDigests := make([]string, *freshN)
	for i := range freshTraces {
		freshTraces[i] = traceFor(scenarios, *seedN+i)
		d, err := cluster.SubmitAndWait(context.Background(), api.SubmitRequest{Trace: freshTraces[i]})
		if err != nil {
			log.Fatalf("handoffbench: fresh %d: %v", i, err)
		}
		freshDigests[i] = d.Digest
	}
	waitFor("replicas to land on both nodes", func() bool {
		for _, d := range freshDigests {
			if _, ok := n1.Pool.CacheEntryFor(d); !ok {
				return false
			}
			if _, ok := n2.Pool.CacheEntryFor(d); !ok {
				return false
			}
		}
		return true
	})

	// The dead node's share: fresh digests the ring routes to n1 first.
	var orphaned [][]byte
	for i, d := range freshDigests {
		if route := cluster.RouteDigest(d); len(route) > 0 && route[0] == n1.URL() {
			orphaned = append(orphaned, freshTraces[i])
		}
	}
	rep.Handoff["n1"] = n1.Roster.Metrics() // snapshot before the kill
	// Sever it the way a crash would: gossip stops, open connections
	// break mid-flight, the listener refuses. No drain, no goodbye
	// announce — the rest of the fleet finds out the hard way.
	n1.Abort()
	rep.Kill = submitAll(orphaned, func(trace []byte) (api.Diagnosis, error) {
		return cluster.SubmitAndWait(context.Background(), api.SubmitRequest{Trace: trace})
	})
	rep.Handoff["n2"] = n2.Roster.Metrics()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)

	n2.Close()

	if *enforce {
		if rep.Join.WarmHitRate < 0.8 {
			log.Fatalf("handoffbench: join warm-hit rate %.2f below the 0.80 fence", rep.Join.WarmHitRate)
		}
		if rep.Kill.Total > 0 && rep.Kill.WarmHits < rep.Kill.Total {
			log.Fatalf("handoffbench: only %d/%d replicated digests answered warm after the kill", rep.Kill.WarmHits, rep.Kill.Total)
		}
	}
}

// darshanScenarios filters the scored matrix to the darshan modality,
// whose parser-text rendering accepts the metadata-comment variant trick.
func darshanScenarios() []scenario.Scenario {
	var out []scenario.Scenario
	for _, sc := range scenario.Matrix() {
		if sc.Modality == "darshan" {
			out = append(out, sc)
		}
	}
	if len(out) == 0 {
		log.Fatal("handoffbench: no darshan scenarios in the matrix")
	}
	return out
}
