package fleet

// Semantic result reuse and cost-aware tier scheduling: the pool-side half
// of internal/fleet/semcache. Everything here runs on worker goroutines —
// the gate and the tier self-check make LLM calls, so none of it may hold
// p.mu.

import (
	"ioagent/internal/darshan"
	"ioagent/internal/fleet/semcache"
	"ioagent/internal/ioagent"
	"ioagent/internal/issue"
	"ioagent/internal/llm"
)

// semLookupK is how many similarity candidates one miss considers. Only
// the best live candidate reaches the judge, so k bounds stale-entry
// cleanup work, not LLM cost.
const semLookupK = 4

// semanticReuse tries to serve a cache miss from a near-duplicate's cached
// diagnosis. It returns ok=false — and counts a semcache miss or gate
// reject — when the submission must fall through to a fresh diagnosis.
func (p *Pool) semanticReuse(d semcache.Derived) (res *ioagent.Result, source string, conf float64, ok bool) {
	for _, cand := range p.sem.Lookup(d.Features, semLookupK) {
		if cand.Score < p.cfg.SimThreshold {
			break // candidates are best-first; the rest are even farther
		}
		if semcache.Modality(cand.Features) != semcache.Modality(d.Features) {
			// Cross-modality fence: a DXT per-operation trace must never
			// be served a diagnosis produced from Darshan counters (or
			// vice versa), however close the derived profiles sit — the
			// evidence classes differ, so the cached reasoning does not
			// transfer. Skipped before any gate spend.
			continue
		}
		cached, live := p.cache.Get(cand.Digest)
		if !live {
			// The source diagnosis expired between eviction hook and
			// lookup; drop the orphaned vector and try the next candidate.
			p.sem.Remove(cand.Digest)
			continue
		}
		dec, err := p.gate.EvaluateLabels(d.Labels, cached.Text, cand.Score)
		if err != nil {
			// A gate that cannot decide must not guess: treat the
			// submission as a plain miss and pay for a fresh diagnosis.
			p.m.countSem(&p.m.semMisses)
			return nil, "", 0, false
		}
		if !dec.Reuse {
			p.m.countSem(&p.m.semGateRejects)
			return nil, "", 0, false
		}
		p.m.countSem(&p.m.semHits)
		return cached, cand.Digest, dec.Confidence, true
	}
	p.m.countSem(&p.m.semMisses)
	return nil, "", 0, false
}

// diagnose runs one diagnosis attempt: the shared agent directly, or the
// cheapest-first tier ladder when Config.TierModels is set, self-checking
// each rung against the trace's drishti labels. Transient errors
// propagate to runJob's retry/breaker loop unchanged.
func (p *Pool) diagnose(log *darshan.Log, labels issue.Set) (*ioagent.Result, error) {
	if len(p.tiers) == 0 {
		return p.agent.Diagnose(log)
	}
	var res *ioagent.Result
	for i, agent := range p.tiers {
		r, err := agent.Diagnose(log)
		if err != nil {
			return nil, err
		}
		res = r
		p.m.countTierJob(p.cfg.TierModels[i])
		if i == len(p.tiers)-1 {
			break // the last rung is always accepted
		}
		if p.cfg.TierBudgetUSD > 0 && p.llmSpendUSD() >= p.cfg.TierBudgetUSD {
			break // budget exhausted: stop escalating, serve what we have
		}
		score, err := p.gate.ScoreDiagnosis(labels, r.Text)
		if err != nil {
			break // cannot self-check: accept this rung rather than guess
		}
		if score >= p.cfg.TierThreshold {
			break
		}
		p.m.countSem(&p.m.tierEscalations)
	}
	return res, nil
}

// llmSpendUSD is the pool's lifetime LLM spend across agents and judge
// calls — the number Config.TierBudgetUSD is enforced against.
func (p *Pool) llmSpendUSD() float64 {
	var total float64
	for _, ms := range p.StatsByModel() {
		total += ms.CostUSD
	}
	return total
}

// StatsByModel aggregates per-model usage across the shared agent, every
// tier rung, and the reuse-gate judge calls. Serving layers expose it on
// /metrics; the tier scheduler enforces the budget against its sum.
func (p *Pool) StatsByModel() map[string]ioagent.ModelStats {
	out := p.agent.StatsByModel()
	merge := func(stats map[string]ioagent.ModelStats) {
		for model, ms := range stats {
			agg := out[model]
			agg.Add(ms)
			out[model] = agg
		}
	}
	for _, agent := range p.tiers {
		if agent == p.agent {
			continue // already counted as the base map
		}
		merge(agent.StatsByModel())
	}
	p.gateMu.Lock()
	merge(p.gateStats)
	p.gateMu.Unlock()
	return out
}

// recordGateUsage accumulates one judge call's usage (recordingClient
// callback).
func (p *Pool) recordGateUsage(resp llm.Response) {
	p.gateMu.Lock()
	defer p.gateMu.Unlock()
	if p.gateStats == nil {
		p.gateStats = make(map[string]ioagent.ModelStats)
	}
	ms := p.gateStats[resp.Model]
	ms.Add(ioagent.ModelStats{Usage: resp.Usage, CostUSD: resp.CostUSD, Calls: 1})
	p.gateStats[resp.Model] = ms
}

// recordingClient wraps the pool's LLM client so judge traffic — which
// goes through no ioagent.Agent — still lands in the pool's per-model
// accounting.
type recordingClient struct {
	inner  llm.Client
	record func(llm.Response)
}

func (c *recordingClient) Complete(req llm.Request) (llm.Response, error) {
	resp, err := c.inner.Complete(req)
	if err == nil {
		c.record(resp)
	}
	return resp, err
}

// SemEntry is one persisted similarity-index entry (re-exported so the
// persistence layer depends only on fleet types, mirroring CacheEntry).
type SemEntry = semcache.Entry

// SemExport snapshots the similarity index for persistence; nil when
// semantic reuse is disabled.
func (p *Pool) SemExport() []SemEntry {
	if p.sem == nil {
		return nil
	}
	return p.sem.Export()
}

// SemRestore seeds the similarity index from a persisted snapshot. It must
// run after CacheRestore: entries whose digest has no live cache backing
// are dropped, preserving the invariant that a vector never points at a
// diagnosis the cache cannot serve.
func (p *Pool) SemRestore(entries []SemEntry) {
	if p.sem == nil {
		return
	}
	for _, e := range entries {
		if e.Digest == "" || e.Features == "" || !p.cache.contains(e.Digest) {
			continue
		}
		p.sem.Add(e.Digest, e.Features)
	}
}

// SemLen reports the number of indexed similarity vectors (0 when
// semantic reuse is disabled).
func (p *Pool) SemLen() int {
	if p.sem == nil {
		return 0
	}
	return p.sem.Len()
}
