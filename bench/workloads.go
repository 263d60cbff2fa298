package main

import (
	"fmt"
	"math"
)

// job is one window submission: which input, through which entry point,
// and what the response must say about how it was served.
type job struct {
	in   *input
	mode submitMode
	want provenance
}

// plan is a workload's generated inputs.
type plan struct {
	// seed is diagnosed in set-up, in order, by one client — so the
	// similarity index is built in one order on every run.
	seed []*input
	// seedMode is the entry point set-up submits through.
	seedMode submitMode
	// pick maps the i-th submission after set-up onto a job; ok is false
	// when the pre-generated inputs are used up, which is a harness error
	// (raise the workload's freshPerSecond), never a wrap-around.
	pick func(i int) (j job, ok bool)
}

// counters are the fleet's own counts over one window, summed over both
// nodes (deltas of GET /metrics).
type counters struct {
	Submitted, ExactHits, Misses, SemHits, SemRejects float64
	Retries, TierEscalations, CheapJobs, FrontierJobs float64
	LLMCalls, LLMTokens, LLMCostUSD                   float64
	ReplicaPushed, PushErrors                         float64
}

// workload is one named traffic mix. The names are fixed: later issues
// cite them.
type workload struct {
	Name    string
	Why     string
	Profile profile
	// freshPerSecond bounds how many never-seen inputs one second of load
	// may consume; set-up pre-generates that many per second of run, so
	// generation never competes with the fleet for the cores. Two to three
	// times the baseline rate: more costs set-up time and live heap.
	freshPerSecond int
	plan           func(g *gen, fresh int, tiny bool) (*plan, error)
	// isolated checks, from the fleet's own counters, that the workload
	// exercised the layers it was built to exercise and bypassed the rest.
	isolated func(c counters, jobs []result) []string
}

var workloads = []*workload{hitSmall, neardupGate, paperPipeline, streamLarge}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func expect(problems *[]string, ok bool, format string, args ...any) {
	if !ok {
		*problems = append(*problems, fmt.Sprintf(format, args...))
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// tinyBases keeps a few small bases, for the smoke test.
func tinyBases(bases []*base, n int) []*base {
	var out []*base
	for _, b := range bases {
		if len(b.text) < 32<<10 && len(out) < n {
			out = append(out, b)
		}
	}
	return out
}

var hitSmall = &workload{
	Name:    "hit_small",
	Why:     "64 small counter logs resubmitted as buffered binary: 100% exact hits, so router sniff/decode/digest, the forward hop, node decode+digest, Pool.submit and two polls do all the work",
	Profile: profileReuse,
	plan: func(g *gen, _ int, tiny bool) (*plan, error) {
		bases, err := traceBenchBases()
		if err != nil {
			return nil, err
		}
		variants := 24
		if tiny {
			bases, variants = tinyBases(bases, 6), 2
		}
		// The same 64 profiles for every seed (the seed picks tags and
		// order), so the mean job costs the same whatever the seed.
		var working []*input
		for _, b := range bases {
			working = append(working, &input{base: b, wire: b.bin})
		}
		for _, b := range bases[:variants] {
			v, err := g.binVariant(b)
			if err != nil {
				return nil, err
			}
			working = append(working, v)
		}
		g.rng.Shuffle(len(working), func(i, j int) { working[i], working[j] = working[j], working[i] })
		return &plan{seed: working, pick: func(i int) (job, bool) {
			return job{in: working[i%len(working)], mode: buffered, want: wantHit}, true
		}}, nil
	},
	isolated: func(c counters, _ []result) (p []string) {
		expect(&p, near(c.ExactHits, c.Submitted), "pool.exact_hit_ratio = %g/%g, want 1", c.ExactHits, c.Submitted)
		expect(&p, c.LLMCostUSD == 0 && c.LLMCalls == 0, "llm spend %g USD in %g calls, want none", c.LLMCostUSD, c.LLMCalls)
		return p
	},
}

var neardupGate = &workload{
	Name:           "neardup_gate",
	Why:            "never-seen near-duplicates of diagnosed traces: every job misses the exact cache and runs FeatureText, Index.Lookup and Gate.Evaluate; the agent runs only on gate rejects",
	Profile:        profileReuse,
	freshPerSecond: 800,
	plan: func(g *gen, fresh int, tiny bool) (*plan, error) {
		scen, err := scenarioBases()
		if err != nil {
			return nil, err
		}
		tb, err := traceBenchBases()
		if err != nil {
			return nil, err
		}
		if tiny {
			scen, tb = tinyBases(scen, 4), tinyBases(tb, 4)
		}
		// Scenario bases first, in matrix order, as cmd/fleetbench seeds
		// them: their diagnoses are scored against committed baselines.
		p := &plan{}
		var bases []*base
		for _, b := range append(scen, tb...) {
			in := &input{base: b, wire: b.bin}
			if b.modality == "dxt" {
				in.wire = b.text
			}
			if b.scenario != nil && len(in.wire) > smallWire {
				continue // the large scenario renderings belong to stream_large
			}
			p.seed = append(p.seed, in)
			bases = append(bases, b)
		}
		variants, err := g.variants(bases, fresh, func(int) bool { return true })
		if err != nil {
			return nil, err
		}
		p.pick = func(i int) (job, bool) {
			if i >= len(variants) {
				return job{}, false
			}
			return job{in: variants[i], mode: buffered, want: wantNew}, true
		}
		return p, nil
	},
	isolated: func(c counters, _ []result) (p []string) {
		expect(&p, c.ExactHits == 0, "pool.exact_hit_ratio = %g/%g, want 0", c.ExactHits, c.Submitted)
		expect(&p, c.SemHits >= 0.5*c.Submitted, "semcache.hit_ratio = %g/%g, want >= 0.5", c.SemHits, c.Submitted)
		return p
	},
}

var paperPipeline = &workload{
	Name:           "paper_pipeline",
	Why:            "a new digest every job with semantic reuse and tiers off: every job runs the paper's full pipeline on the frontier sim model, then cache put, journal and replicate",
	Profile:        profilePaper,
	freshPerSecond: 250,
	plan: func(g *gen, fresh int, tiny bool) (*plan, error) {
		bases, err := traceBenchBases()
		if err != nil {
			return nil, err
		}
		if tiny {
			bases = tinyBases(bases, 6)
		}
		// Half binary, half parser text.
		variants, err := g.variants(bases, fresh, func(k int) bool { return k%2 == 1 })
		if err != nil {
			return nil, err
		}
		return &plan{pick: func(i int) (job, bool) {
			if i >= len(variants) {
				return job{}, false
			}
			return job{in: variants[i], mode: buffered, want: wantFresh}, true
		}}, nil
	},
	isolated: func(c counters, _ []result) (p []string) {
		expect(&p, c.ExactHits == 0, "pool.exact_hit_ratio = %g/%g, want 0", c.ExactHits, c.Submitted)
		expect(&p, c.SemHits == 0, "semcache hits = %g, want 0", c.SemHits)
		expect(&p, c.LLMCalls > 20*c.Submitted, "llm.calls_per_job = %g/%g, want > 20", c.LLMCalls, c.Submitted)
		return p
	},
}

// streamLargeMin is the smallest rendering stream_large submits.
const streamLargeMin = 60_000

var streamLarge = &workload{
	Name:           "stream_large",
	Why:            "16 large text renderings (1.6 MB parser text, DXT of 60 KB and more) streamed in 64 KiB chunks through both streaming entry points, 90% repeats: hit_small's ingest/digest layers through ingest.Parser",
	Profile:        profileReuse,
	freshPerSecond: 20,
	plan: func(g *gen, fresh int, tiny bool) (*plan, error) {
		scen, err := scenarioBases()
		if err != nil {
			return nil, err
		}
		var bases []*base
		for _, b := range scen {
			large := len(b.text) >= streamLargeMin
			if tiny {
				large = large && len(b.text) < 128<<10
			}
			if large && (b.modality == "dxt" || b.name == "metadata-storm") {
				bases = append(bases, b)
			}
		}
		perBase := 3
		if tiny {
			perBase = 1
		}
		var working []*input
		for _, b := range bases {
			working = append(working, &input{base: b, wire: b.text})
		}
		for k := 0; k < perBase; k++ {
			for _, b := range bases {
				working = append(working, g.largeVariant(b))
			}
		}
		variants := make([]*input, fresh)
		for k := range variants {
			variants[k] = g.largeVariant(bases[k%len(bases)])
		}
		// Chunk boundaries move with the seed.
		for _, in := range append(append([]*input(nil), working...), variants...) {
			in.chunk = 64<<10 - g.rng.Intn(4096)
		}
		g.rng.Shuffle(len(working), func(i, j int) { working[i], working[j] = working[j], working[i] })
		return &plan{seed: working, seedMode: streamed, pick: func(i int) (job, bool) {
			mode := streamed
			if i%2 == 1 {
				mode = chunked
			}
			// Every tenth submission is new; the rest walk the working set.
			if i%10 == 9 {
				if k := i / 10; k < len(variants) {
					return job{in: variants[k], mode: mode, want: wantNew}, true
				}
				return job{}, false
			}
			return job{in: working[(i-i/10)%len(working)], mode: mode, want: wantHit}, true
		}}, nil
	},
	isolated: func(c counters, jobs []result) (p []string) {
		var bytes int
		for _, r := range jobs {
			bytes += r.job.in.size()
			expect(&p, r.job.mode != buffered, "job %d entered through the buffered endpoint", r.idx)
		}
		if len(jobs) > 0 {
			mean := bytes / len(jobs)
			expect(&p, mean >= streamLargeMin, "mean accepted trace size %d B, want >= %d", mean, streamLargeMin)
		}
		hit := ratio(c.ExactHits, c.Submitted)
		expect(&p, hit >= 0.85 && hit <= 0.95, "pool.exact_hit_ratio = %g/%g, want 0.85–0.95", c.ExactHits, c.Submitted)
		return p
	},
}

// variants pre-generates n never-seen small variants, cycling over the
// shuffled bases that fit smallWire.
func (g *gen) variants(bases []*base, n int, asText func(k int) bool) ([]*input, error) {
	var order []*base
	for _, b := range g.shuffled(bases) {
		if fitsSmall(b) {
			order = append(order, b)
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("%s: no base fits %d bytes", g.workload, smallWire)
	}
	out := make([]*input, n)
	for k := range out {
		in, err := g.smallVariant(order[k%len(order)], asText(k))
		if err != nil {
			return nil, err
		}
		out[k] = in
	}
	return out, nil
}

// largeVariant is a never-seen variant in the base's own text rendering.
func (g *gen) largeVariant(b *base) *input {
	if b.modality == "dxt" {
		return g.dxtVariant(b)
	}
	return g.textVariant(b)
}
