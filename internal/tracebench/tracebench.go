// Package tracebench implements TraceBench, the paper's labeled diagnosis
// benchmark: 40 Darshan traces from three sources — Simple-Bench (10
// issue-targeted micro-programs), IO500 (21 benchmark configurations tuned
// to induce sub-optimal patterns), and Real-Applications (9 application-
// shaped runs including before/after pairs for the E2E and OpenPMD
// pipelines) — each annotated with expert labels from the Table II issue
// vocabulary. The per-source label counts match the paper's Table III
// exactly (182 labeled issues).
//
// Traces are generated by the iosim workload simulator, which stands in
// for machine access; ground-truth consistency is enforced by
// tests that compare each trace's labels against the ideal-expert reading
// of its full text (llm.ExpertLabels).
package tracebench

import (
	"sync"

	"ioagent/internal/darshan"
	"ioagent/internal/issue"
)

// Source names.
const (
	SimpleBench = "Simple-Bench"
	IO500       = "IO500"
	RealApps    = "Real-Applications"
)

// Sources lists the three trace sources in paper order.
var Sources = []string{SimpleBench, IO500, RealApps}

// Trace is one labeled benchmark entry.
type Trace struct {
	Name        string
	Source      string
	Description string
	Labels      issue.Set

	gen  func() *darshan.Log
	once sync.Once
	log  *darshan.Log
}

// Log generates (once) and returns the Darshan log for this trace.
func (t *Trace) Log() *darshan.Log {
	t.once.Do(func() { t.log = t.gen() })
	return t.log
}

// Suite returns the full 40-trace benchmark. Each call returns fresh Trace
// values (logs regenerate deterministically from fixed seeds).
func Suite() []*Trace {
	var out []*Trace
	out = append(out, simpleBench()...)
	out = append(out, io500()...)
	out = append(out, realApps()...)
	return out
}

// BySource filters the suite.
func BySource(traces []*Trace, source string) []*Trace {
	var out []*Trace
	for _, t := range traces {
		if t.Source == source {
			out = append(out, t)
		}
	}
	return out
}

// LabelCounts tallies labels per source, reproducing Table III rows.
func LabelCounts(traces []*Trace) map[issue.Label]map[string]int {
	out := make(map[issue.Label]map[string]int)
	for _, l := range issue.All {
		out[l] = map[string]int{}
	}
	for _, t := range traces {
		for l := range t.Labels {
			out[l][t.Source]++
		}
	}
	return out
}
