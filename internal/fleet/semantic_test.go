package fleet

import (
	"strings"
	"sync/atomic"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet/semcache"
	"ioagent/internal/llm"
)

// nearDuplicate derives a trace with a different content digest but an
// identical I/O profile: the text rendering with one extra metadata line.
// Metadata is hashed into the digest but contributes nothing to semcache
// features, which is exactly the near-duplicate shape the similarity cache
// exists for.
func nearDuplicate(t *testing.T, log *darshan.Log, variant string) *darshan.Log {
	t.Helper()
	text, err := darshan.TextString(log)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := darshan.ParseText(strings.NewReader(text + "# metadata: bench_variant = " + variant + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return dup
}

func semConfig(workers int) Config {
	cfg := testConfig(workers)
	cfg.SemCache = true
	// Unit tests exercise the reuse mechanics, not threshold calibration
	// (the bench does that), so gate on a low blended confidence.
	cfg.GateThreshold = 0.5
	return cfg
}

func TestSemanticReuseServesNearDuplicate(t *testing.T) {
	p := New(llm.NewSim(), semConfig(2))
	defer p.Close()

	base := testTrace(1)
	j1, err := p.Submit(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(); err != nil {
		t.Fatal(err)
	}

	j2, err := p.Submit(nearDuplicate(t, base, "b1"))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait()
	if err != nil {
		t.Fatal(err)
	}

	info := j2.Info()
	if j2.Digest() == j1.Digest() {
		t.Fatal("near-duplicate collapsed to the same digest; test premise broken")
	}
	if !info.SimilarityHit {
		t.Fatalf("near-duplicate was not a similarity hit: %+v", info)
	}
	if info.CacheHit {
		t.Error("similarity hit must not also claim an exact cache hit")
	}
	if info.SourceDigest != j1.Digest() {
		t.Errorf("source digest = %.12s, want the original job's %.12s", info.SourceDigest, j1.Digest())
	}
	if info.Confidence < 0.5 {
		t.Errorf("stamped confidence %.3f below the gate threshold", info.Confidence)
	}
	res1, _ := j1.Wait()
	if res2.Text != res1.Text {
		t.Error("similarity hit must serve the source's diagnosis text")
	}

	m := p.Metrics()
	if m.SemCacheHits != 1 {
		t.Errorf("SemCacheHits = %d, want 1", m.SemCacheHits)
	}
	if m.SemCacheEntries != 1 {
		t.Errorf("SemCacheEntries = %d, want 1 (reused results are not re-indexed)", m.SemCacheEntries)
	}

	// A third submission of the same near-duplicate is now an EXACT cache
	// hit: the reused diagnosis was cached under the new digest too.
	j3, err := p.Submit(nearDuplicate(t, base, "b1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j3.Wait(); err != nil {
		t.Fatal(err)
	}
	if !j3.Info().CacheHit {
		t.Error("resubmitted near-duplicate should exact-hit the cache")
	}
}

func TestSemanticGateRejectFallsThroughToFresh(t *testing.T) {
	cfg := semConfig(2)
	// An unsatisfiable gate: every candidate is rejected, so every
	// submission must provably fall through to a fresh diagnosis.
	cfg.GateThreshold = 2.0
	p := New(llm.NewSim(), cfg)
	defer p.Close()

	base := testTrace(1)
	j1, err := p.Submit(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(); err != nil {
		t.Fatal(err)
	}

	j2, err := p.Submit(nearDuplicate(t, base, "b1"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := j2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	info := j2.Info()
	if info.SimilarityHit {
		t.Fatalf("gate at threshold 2.0 must reject, got similarity hit: %+v", info)
	}
	if info.Attempts < 1 {
		t.Error("rejected candidate must fall through to a fresh diagnosis attempt")
	}
	if res == nil || res.Text == "" {
		t.Error("fresh diagnosis after gate reject is empty")
	}
	m := p.Metrics()
	if m.SemCacheGateRejects != 1 {
		t.Errorf("SemCacheGateRejects = %d, want 1", m.SemCacheGateRejects)
	}
	if m.SemCacheHits != 0 {
		t.Errorf("SemCacheHits = %d, want 0", m.SemCacheHits)
	}
	// The fresh result was indexed: both digests now carry vectors.
	if m.SemCacheEntries != 2 {
		t.Errorf("SemCacheEntries = %d, want 2", m.SemCacheEntries)
	}
}

func TestCacheEvictDropsSemVector(t *testing.T) {
	var evicted []string
	cfg := semConfig(1)
	cfg.CacheSize = 1       // every fresh result evicts the previous one
	cfg.GateThreshold = 2.0 // force fresh diagnoses: this test is about eviction
	cfg.SemCacheSize = 16
	cfg.OnCacheEvict = func(d string) { evicted = append(evicted, d) }
	p := New(llm.NewSim(), cfg)
	defer p.Close()

	j1, err := p.Submit(testTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(); err != nil {
		t.Fatal(err)
	}
	j2, err := p.Submit(testTrace(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(); err != nil {
		t.Fatal(err)
	}

	// j2's insertion evicted j1 from the result cache; the similarity
	// vector must be gone with it, or reuse could cite a diagnosis the
	// cache can no longer serve.
	if p.SemLen() != 1 {
		t.Fatalf("SemLen = %d after eviction, want 1", p.SemLen())
	}
	for _, e := range p.SemExport() {
		if e.Digest == j1.Digest() {
			t.Error("evicted digest still has a similarity vector")
		}
	}
	// The user's own eviction hook still fires after the chained one.
	found := false
	for _, d := range evicted {
		if d == j1.Digest() {
			found = true
		}
	}
	if !found {
		t.Error("user OnCacheEvict hook was not chained")
	}
}

func TestSemRestoreDropsUnbackedEntries(t *testing.T) {
	p := New(llm.NewSim(), semConfig(1))
	defer p.Close()

	j, err := p.Submit(testTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	entries := p.SemExport()
	if len(entries) != 1 {
		t.Fatalf("exported %d sem entries, want 1", len(entries))
	}

	// A fresh pool restoring the similarity index WITHOUT the cache
	// snapshot must drop the orphaned vector: reuse may never point at a
	// diagnosis the cache cannot serve.
	p2 := New(llm.NewSim(), semConfig(1))
	defer p2.Close()
	p2.SemRestore(entries)
	if p2.SemLen() != 0 {
		t.Errorf("SemLen = %d after restoring without cache backing, want 0", p2.SemLen())
	}

	// With the cache restored first, the vector survives.
	p3 := New(llm.NewSim(), semConfig(1))
	defer p3.Close()
	p3.CacheRestore(p.CacheExport())
	p3.SemRestore(entries)
	if p3.SemLen() != 1 {
		t.Errorf("SemLen = %d after cache-backed restore, want 1", p3.SemLen())
	}
}

func TestTierLadderCheapFirst(t *testing.T) {
	cfg := testConfig(2)
	cfg.TierModels = []string{llm.GPT4oMini, llm.GPT4o}
	cfg.TierThreshold = 0.01 // any self-check score accepts the cheap rung
	p := New(llm.NewSim(), cfg)
	defer p.Close()

	j, err := p.Submit(testTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics()
	if m.Tiers[llm.GPT4oMini].Jobs != 1 {
		t.Errorf("cheap tier jobs = %d, want 1", m.Tiers[llm.GPT4oMini].Jobs)
	}
	if m.Tiers[llm.GPT4o].Jobs != 0 {
		t.Errorf("expensive tier ran %d jobs at threshold 0.01, want 0", m.Tiers[llm.GPT4o].Jobs)
	}
	if m.TierEscalations != 0 {
		t.Errorf("escalations = %d, want 0", m.TierEscalations)
	}
	stats := p.StatsByModel()
	if stats[llm.GPT4oMini].Calls == 0 {
		t.Error("StatsByModel shows no cheap-tier calls")
	}
}

func TestTierLadderEscalatesOnLowConfidence(t *testing.T) {
	cfg := testConfig(2)
	cfg.TierModels = []string{llm.GPT4oMini, llm.GPT4o}
	cfg.TierThreshold = 1.1 // unsatisfiable: always escalate to the top rung
	p := New(llm.NewSim(), cfg)
	defer p.Close()

	j, err := p.Submit(testTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics()
	if m.Tiers[llm.GPT4oMini].Jobs != 1 || m.Tiers[llm.GPT4o].Jobs != 1 {
		t.Errorf("tier jobs = %+v, want one per rung", m.Tiers)
	}
	if m.TierEscalations != 1 {
		t.Errorf("escalations = %d, want 1", m.TierEscalations)
	}
}

func TestTierBudgetStopsEscalation(t *testing.T) {
	cfg := testConfig(2)
	cfg.TierModels = []string{llm.GPT4oMini, llm.GPT4o}
	cfg.TierThreshold = 1.1 // would always escalate...
	cfg.TierBudgetUSD = 1e-9
	p := New(llm.NewSim(), cfg)
	defer p.Close()

	// First job spends past the (tiny) budget; subsequent jobs must stay
	// on the cheapest rung.
	for i := 1; i <= 2; i++ {
		j, err := p.Submit(testTrace(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	m := p.Metrics()
	if got := m.Tiers[llm.GPT4o].Jobs; got != 0 {
		t.Errorf("expensive tier ran %d jobs with the budget exhausted, want 0", got)
	}
	if got := m.Tiers[llm.GPT4oMini].Jobs; got != 2 {
		t.Errorf("cheap tier jobs = %d, want 2", got)
	}
}

// TestDeriveOncePerFreshJob: a pool with a gate canonicalizes and runs
// drishti once per fresh job — however many attempts, tier rungs and
// gate calls the job makes — and never for an exact hit; a pool without
// a gate derives nothing, and neither does a one-rung ladder, which
// accepts its rung unchecked. A tier-only pool judges on the cheap gate
// model, as a reuse pool does.
func TestDeriveOncePerFreshJob(t *testing.T) {
	var derived atomic.Int64
	derive = func(log *darshan.Log) semcache.Derived {
		derived.Add(1)
		return semcache.Derive(log)
	}
	defer func() { derive = semcache.Derive }()
	run := func(p *Pool, logs ...*darshan.Log) {
		t.Helper()
		defer p.Close()
		for _, log := range logs {
			j, err := p.Submit(log)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}

	run(New(llm.NewSim(), testConfig(1)), testTrace(1), testTrace(2))
	if n := derived.Load(); n != 0 {
		t.Fatalf("a pool without a gate derived %d times", n)
	}

	cfg := semConfig(1)
	cfg.TierModels = []string{llm.GPT4oMini, llm.GPT4o}
	cfg.TierThreshold = 1.1 // always self-check and escalate
	ladder := &rankCounter{inner: llm.NewSim()}
	run(New(&failFirstN{inner: ladder, n: 1}, cfg), testTrace(1), testTrace(2), testTrace(1))
	if n := derived.Load(); n != 2 {
		t.Fatalf("two fresh jobs and one exact hit derived %d times, want 2", n)
	}
	if ladder.n.Load() == 0 {
		t.Fatal("a self-checking ladder sent no judge prompt: the count below would prove nothing")
	}

	// A one-rung ladder accepts its rung unchecked: no gate, so nothing
	// derived and no judge prompt sent.
	derived.Store(0)
	cfg = testConfig(1)
	cfg.TierModels = []string{llm.GPT4oMini}
	judged := &rankCounter{inner: llm.NewSim()}
	one := New(judged, cfg)
	if one.gate != nil {
		t.Error("a one-rung ladder built a gate")
	}
	run(one, testTrace(1), testTrace(2))
	if n := derived.Load(); n != 0 {
		t.Errorf("a one-rung ladder derived %d times, want 0", n)
	}
	if n := judged.n.Load(); n != 0 {
		t.Errorf("a one-rung ladder sent %d judge prompts, want 0", n)
	}

	cfg = testConfig(1)
	cfg.TierModels = []string{llm.GPT4oMini, llm.GPT4o}
	p := New(llm.NewSim(), cfg)
	defer p.Close()
	if p.gate.Model != llm.GPT4oMini {
		t.Errorf("tier-only pool judges on %q, want %q", p.gate.Model, llm.GPT4oMini)
	}
}

// rankCounter counts the ranking (judge) prompts sent through it.
type rankCounter struct {
	inner llm.Client
	n     atomic.Int64
}

func (c *rankCounter) Complete(req llm.Request) (llm.Response, error) {
	if strings.HasPrefix(llm.JoinPrompt(req.Messages), "TASK: rank\n") {
		c.n.Add(1)
	}
	return c.inner.Complete(req)
}
