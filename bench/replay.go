package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/drishti"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/ring"
	"ioagent/internal/fleet/semcache"
	"ioagent/internal/ioagent"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
)

// replayed is one window input taken through the public functions again.
type replayed struct {
	in   *input
	wire []byte
	text string // the diagnosis the fleet returned for it
	log  *darshan.Log
	cd   string // content digest, from ingest.Parser
}

// timed runs fn(i) for i = 0, 1, … cycling over n items, until maxOps
// calls or the budget is spent (at least two calls), single-threaded,
// and returns each call's time in ms and the allocations per call.
func timed(n, maxOps int, budget time.Duration, fn func(i int) error) (each []float64, allocsPerOp float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(budget)
	for k := 0; k < maxOps && (k < 2 || time.Now().Before(deadline)); k++ {
		start := time.Now()
		if err := fn(k % n); err != nil {
			return nil, 0, err
		}
		each = append(each, ms(time.Since(start)))
	}
	runtime.ReadMemStats(&after)
	return each, ratio(float64(after.Mallocs-before.Mallocs), float64(len(each))), nil
}

// replayMetrics takes a sample of the window's inputs through each
// layer's public functions, one at a time, while the cluster is idle.
func replayMetrics(m metricSet, r *run, p phases, results []result) error {
	var sample []replayed
	seen := make(map[*input]bool)
	for _, res := range results {
		if res.err == nil && !seen[res.job.in] && len(sample) < p.replayOps {
			seen[res.job.in] = true
			sample = append(sample, replayed{in: res.job.in, wire: res.job.in.bytes(), text: res.diag.Text})
		}
	}
	if len(sample) == 0 {
		return fmt.Errorf("no answered job to replay")
	}
	n := len(sample)
	const functions = 13
	budget := p.replay / functions
	run := func(fn func(s *replayed) error) ([]float64, float64, error) {
		return timed(n, p.replayOps, budget, func(i int) error { return fn(&sample[i]) })
	}

	// ingest: the streaming parser, fed 64 KiB at a time.
	var parsedBytes float64
	each, allocs, err := run(func(s *replayed) error {
		parser := ingest.NewParser(0)
		for rest := s.wire; len(rest) > 0; {
			chunk := rest[:min(len(rest), 64<<10)]
			if _, err := parser.Write(chunk); err != nil {
				return err
			}
			rest = rest[len(chunk):]
		}
		var err error
		s.log, s.cd, err = parser.Finish()
		parsedBytes += float64(len(s.wire))
		return err
	})
	if err != nil {
		return err
	}
	m.setSampled("ingest.parse_ms_p50", median(each), len(each))
	m.set("ingest.parse_mb_s", ratio(parsedBytes/1e6, sum(each)/1e3))
	m.set("ingest.parse_allocs_per_op", allocs)
	for i := range sample { // a budget-cut pass may not have reached every input
		if sample[i].log == nil {
			sample = sample[:i]
			break
		}
	}
	n = len(sample)

	// darshan: the binary codec (binary renderings only) and the digest.
	var binary []*replayed
	for i := range sample {
		if bytes.HasPrefix(sample[i].wire, []byte{0x1f, 0x8b}) {
			binary = append(binary, &sample[i])
		}
	}
	m.set("darshan.decode_ms_p50", 0)
	if len(binary) > 0 {
		each, _, err = timed(len(binary), p.replayOps, budget, func(i int) error {
			_, err := darshan.Decode(bytes.NewReader(binary[i].wire))
			return err
		})
		if err != nil {
			return err
		}
		m.setSampled("darshan.decode_ms_p50", median(each), len(each))
	}
	each, allocs, err = run(func(s *replayed) error {
		_, err := darshan.ContentDigest(s.log)
		return err
	})
	if err != nil {
		return err
	}
	m.setSampled("darshan.content_digest_ms_p50", median(each), len(each))
	m.set("darshan.content_digest_allocs_per_op", allocs)

	// client + ring: what the router does to place a buffered submission.
	each, _, _ = run(func(s *replayed) error { client.RouteKey(s.wire); return nil })
	m.setSampled("client.route_key_ms_p50", median(each), len(each))
	rg := ring.New(0)
	for _, node := range r.cl.nodes {
		rg.Add(node.url)
	}
	const batch = 1000 // one lookup is too short to time alone
	each, _, _ = run(func(s *replayed) error {
		for k := 0; k < batch; k++ {
			rg.Owner(s.cd)
		}
		return nil
	})
	m.setSampled("ring.owner_ns_p50", median(each)*1e6/batch, len(each))

	// semcache: what a worker runs on an exact miss before any agent.
	each, _, _ = run(func(s *replayed) error { drishti.Analyze(s.log); return nil })
	m.setSampled("drishti.analyze_ms_p50", median(each), len(each))
	features := make(map[*replayed]string, n)
	each, _, _ = run(func(s *replayed) error { features[s] = semcache.FeatureText(s.log); return nil })
	m.setSampled("semcache.feature_text_ms_p50", median(each), len(each))
	index := semcache.NewIndex(cacheSize) // over the base set: what set-up diagnosed, plus the sample's own bases
	indexed := make(map[*base]bool)
	addBase := func(b *base) {
		if !indexed[b] {
			indexed[b] = true
			index.Add(b.name, semcache.FeatureText(b.log))
		}
	}
	for _, in := range r.plan.seed {
		addBase(in.base)
	}
	for i := range sample {
		addBase(sample[i].in.base)
	}
	each, _, _ = run(func(s *replayed) error { index.Lookup(features[s], 4); return nil })
	m.setSampled("semcache.lookup_ms_p50", median(each), len(each))
	gate := &semcache.Gate{Client: llm.NewSim()}
	each, _, err = run(func(s *replayed) error {
		_, err := gate.Evaluate(s.log, s.text, 0.95)
		return err
	})
	if err != nil {
		return err
	}
	m.setSampled("semcache.gate_evaluate_ms_p50", median(each), len(each))

	// ioagent: the paper's pipeline on its own, with the same wrappers
	// the fleet pass uses, so the agent's own time can be separated.
	each, _, _ = run(func(s *replayed) error { ioagent.Summarize(s.log); return nil })
	m.setSampled("ioagent.summarize_ms_p50", median(each), len(each))
	t := newTracer()
	t.on.Store(true)
	corpus := knowledge.BuildIndex()
	opts := agentOptions
	opts.Index, opts.Retriever = corpus, tracedRetriever{t, corpus}
	agent := ioagent.New(tracedLLM{t, llm.NewSim()}, opts)
	var queries []string
	var selfMs []float64
	each, _, err = timed(n, p.replayOps, 3*budget, func(i int) error {
		start := time.Now()
		res, err := agent.Diagnose(sample[i].log)
		if err != nil {
			return err
		}
		total := time.Since(start)
		selfMs = append(selfMs, ms(total)-float64(unionNs(t.take()))/1e6)
		for _, f := range res.Fragments {
			queries = append(queries, f.Description)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.setSampled("ioagent.diagnose_ms_p50", median(each), len(each))
	m.set("ioagent.self_ms_per_job", ratio(sum(selfMs), float64(len(selfMs))))

	// vectordb: top-15 over the built-in corpus, with the descriptions
	// the diagnoses above actually searched for.
	m.set("vectordb.search_us_p50", 0)
	if len(queries) > 0 {
		each, _, _ = timed(len(queries), 10*p.replayOps, budget, func(i int) error { corpus.Search(queries[i], 15); return nil })
		m.setSampled("vectordb.search_us_p50", median(each)*1e3, len(each))
	}

	// pool: an exact hit at the pool's own door, no HTTP in front.
	pool := fleet.New(llm.NewSim(), fleet.Config{Workers: 1, CacheSize: cacheSize, Agent: agentOptions})
	defer pool.Close()
	for i := range sample {
		digest, err := fleet.Digest(agentOptions, sample[i].log)
		if err != nil {
			return err
		}
		pool.CacheIngest(digest, sample[i].text, time.Now())
	}
	jobs := make([]*fleet.Job, 0, 20*p.replayOps) // checked after the timing, not inside it
	each, _, err = timed(n, 20*p.replayOps, budget, func(i int) error {
		job, err := pool.SubmitPreparsed(context.Background(),
			fleet.Preparsed{Log: sample[i].log, ContentDigest: sample[i].cd}, fleet.SubmitOpts{})
		jobs = append(jobs, job)
		return err
	})
	if err != nil {
		return err
	}
	for _, job := range jobs {
		if !job.Info().CacheHit {
			return fmt.Errorf("pool submit %s was not an exact hit", job.ID())
		}
	}
	m.setSampled("pool.submit_hit_us_p50", median(each)*1e3, len(each))
	return nil
}

func sum(xs []float64) (total float64) {
	for _, x := range xs {
		total += x
	}
	return total
}
