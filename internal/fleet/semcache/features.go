// Package semcache implements semantic result reuse for the diagnosis
// fleet: traces that are near-duplicates of an already-diagnosed trace are
// served from that diagnosis instead of paying a fresh LLM call.
//
// The pipeline has three stages, each in its own file:
//
//   - features.go: a deterministic feature rendering of a trace (module
//     mix, drishti trigger set, order-of-magnitude counter profile) that
//     two renderings of the same trace map to byte-identically;
//   - semcache.go: a bounded similarity index over those features, one
//     document per diagnosed digest, backed by internal/vectordb;
//   - gate.go: a confidence gate that decides whether a candidate's cached
//     diagnosis actually applies to the new trace, combining vector
//     similarity, label agreement, and an LLM judge verdict.
package semcache

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ioagent/internal/darshan"
	"ioagent/internal/drishti"
	"ioagent/internal/dxt"
	"ioagent/internal/issue"
)

// Derived is what the fleet derives from a trace once per fresh job, from
// one canonicalization and one drishti pass: the feature text the
// similarity index keys on and the heuristic labels the gate and the tier
// self-check judge against.
type Derived struct {
	Features string
	Labels   issue.Set
}

// FeatureText is Derive(log).Features.
func FeatureText(log *darshan.Log) string { return Derive(log).Features }

// Derive renders a trace's feature text and takes its drishti labels.
//
// The feature text is a deterministic token stream. Two properties matter:
//
//   - Rendering independence: the extractor works on darshan.Canonical(log),
//     the same rendering-neutral form ContentDigest hashes, so the binary
//     and darshan-parser-text forms of one trace produce identical features
//     even though their raw float bits differ.
//   - Embedding survival: internal/embed's tokenizer drops stopwords and
//     bare-number tokens, so every token here embeds its digits inside a
//     letter-bearing word ("m3", "nprocsb2") and carries no free-standing
//     numbers.
//
// The profile is intentionally coarse — order-of-magnitude buckets, not raw
// counter values — so near-duplicate traces (same workload, perturbed
// timestamps or slightly different byte counts) land on nearby vectors
// while genuinely different workloads do not.
func Derive(log *darshan.Log) Derived {
	c := darshan.Canonical(log)
	var toks []string

	// Modality first: a counter-only Darshan log and a DXT per-operation
	// trace are different evidence classes even when their derived
	// counter profiles coincide, and the fleet's reuse fence keys off
	// this leading token (see Modality).
	toks = append(toks, modalityToken(c))

	// Job shape: scale buckets for process count and runtime.
	toks = append(toks,
		fmt.Sprintf("nprocsb%d", magnitude(float64(c.Job.NProcs))),
		fmt.Sprintf("runtimeb%d", magnitude(c.Job.RunTime)))

	// DXT temporal surfaces: burst structure, straggler signal, and the
	// read/write timeline mix — the per-operation evidence counters
	// cannot carry. Derived from the canonical event stream, so every
	// rendering of one trace tokenizes identically.
	if c.DXT != nil {
		t := c.DXT
		reads := 0
		for _, e := range t.Events {
			if e.Op == dxt.OpRead {
				reads++
			}
		}
		_, ratio := t.StragglerRank()
		toks = append(toks,
			fmt.Sprintf("dxteventsm%d", magnitude(float64(len(t.Events)))),
			fmt.Sprintf("dxtburstsm%d", magnitude(float64(len(t.Bursts(0.050, 8))))),
			fmt.Sprintf("dxtstragglerx%d", int(ratio)),
			fmt.Sprintf("dxtreadmixp%d", int(10*float64(reads)/float64(max(len(t.Events), 1)))))
	}

	// Module mix, in canonical module order.
	for _, m := range c.ModuleList() {
		toks = append(toks, "mod"+sanitize(m.String()))
	}

	// Per-module counter profile: each summed counter contributes one token
	// naming the counter and its order of magnitude.
	for _, m := range c.ModuleList() {
		md := c.Modules[m]
		names := counterNames(md)
		for _, name := range names.c {
			if s := md.SumC(name); s != 0 {
				toks = append(toks, counterToken(m.String(), name, float64(s)))
			}
		}
		for _, name := range names.f {
			if s := md.SumF(name); s != 0 {
				toks = append(toks, counterToken(m.String(), name, s))
			}
		}
	}

	// Heuristic view: fired triggers and the Warn+ issue labels. These are
	// the strongest signal that two traces have the same diagnosis.
	dr := drishti.Analyze(c)
	for _, h := range dr.Hits {
		toks = append(toks, "trig"+sanitize(h.TriggerID))
	}
	labels := dr.Labels()
	for _, l := range labels.Sorted() {
		toks = append(toks, "lbl"+sanitize(string(l)))
	}

	return Derived{Features: strings.Join(toks, " "), Labels: labels}
}

// Modality names the trace modality encoded in a feature text:
// "dxt" for per-operation extended-tracing streams, "darshan" for
// counter-only logs. It reads the leading modality token FeatureText
// emits, so it works on both fresh and persisted feature strings;
// feature texts from before the modality token default to "darshan"
// (the only modality that existed then).
func Modality(features string) string {
	const prefix = "modality"
	tok, _, _ := strings.Cut(features, " ")
	if strings.HasPrefix(tok, prefix) {
		return tok[len(prefix):]
	}
	return "darshan"
}

// modalityToken renders the leading modality token for a canonical log.
func modalityToken(c *darshan.Log) string {
	if c.DXT != nil {
		return "modalitydxt"
	}
	return "modalitydarshan"
}

// counterToken renders one summed counter as a single embeddable token,
// e.g. "posixposixwritesm4" for ~10^4 POSIX_WRITES.
func counterToken(module, counter string, sum float64) string {
	return fmt.Sprintf("%s%sm%d", sanitize(module), sanitize(counter), magnitude(sum))
}

// magnitude buckets a value by order of magnitude: floor(log10(|v|)),
// clamped to [0, 15]; zero maps to 0.
func magnitude(v float64) int {
	v = math.Abs(v)
	if v < 1 {
		return 0
	}
	m := int(math.Floor(math.Log10(v)))
	if m > 15 {
		m = 15
	}
	return m
}

// sanitize lowercases s and strips everything but letters and digits so the
// result survives the embedding tokenizer as one token.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// moduleCounterNames holds a module's counter names in sorted order.
type moduleCounterNames struct {
	c []string // integer counters
	f []string // float counters
}

// counterNames collects the distinct counter names across a module's
// records, sorted so iteration order never depends on map order.
func counterNames(md *darshan.ModuleData) moduleCounterNames {
	cset := map[string]struct{}{}
	fset := map[string]struct{}{}
	for _, r := range md.Records {
		for name := range r.Counters {
			cset[name] = struct{}{}
		}
		for name := range r.FCounters {
			fset[name] = struct{}{}
		}
	}
	out := moduleCounterNames{
		c: make([]string, 0, len(cset)),
		f: make([]string, 0, len(fset)),
	}
	for name := range cset {
		out.c = append(out.c, name)
	}
	for name := range fset {
		out.f = append(out.f, name)
	}
	sort.Strings(out.c)
	sort.Strings(out.f)
	return out
}
