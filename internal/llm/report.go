package llm

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"ioagent/internal/issue"
)

// Finding is one diagnosed issue within a report.
type Finding struct {
	Label          issue.Label
	Evidence       string
	Recommendation string
	Refs           []string // citation keys
}

// Report is the structured diagnosis document every tool in this repository
// emits and that merge/judging steps parse back. The textual layout is the
// contract:
//
//	I/O Performance Diagnosis
//	<preamble>
//
//	ISSUE: <label>
//	Evidence: <text>
//	Recommendation: <text>
//	References: key1, key2
//
//	Notes:
//	<free-form observations>
type Report struct {
	Preamble string
	Findings []Finding
	Notes    []string
}

// reportHeader is the first line of every formatted report.
const reportHeader = "I/O Performance Diagnosis"

// Format renders the report in the canonical layout.
func (r *Report) Format() string {
	var b strings.Builder
	b.WriteString(reportHeader + "\n")
	if r.Preamble != "" {
		b.WriteString(r.Preamble + "\n")
	}
	for _, f := range r.Findings {
		b.WriteString("\nISSUE: " + string(f.Label) + "\n")
		if f.Evidence != "" {
			b.WriteString("Evidence: " + f.Evidence + "\n")
		}
		if f.Recommendation != "" {
			b.WriteString("Recommendation: " + f.Recommendation + "\n")
		}
		if len(f.Refs) > 0 {
			b.WriteString("References: " + strings.Join(f.Refs, ", ") + "\n")
		}
	}
	if len(r.Notes) > 0 {
		b.WriteString("\nNotes:\n")
		for _, n := range r.Notes {
			b.WriteString("- " + n + "\n")
		}
	}
	return b.String()
}

// ParseReport parses text in the canonical layout (tolerantly: unknown
// lines inside a finding are appended to its evidence).
func ParseReport(text string) *Report {
	r := &Report{}
	var cur *Finding
	inNotes := false
	var preamble []string
	seenHeader := false

	flush := func() {
		if cur != nil {
			r.Findings = append(r.Findings, *cur)
			cur = nil
		}
	}
	for _, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		switch {
		case line == reportHeader:
			seenHeader = true
		case strings.HasPrefix(line, "ISSUE:"):
			flush()
			inNotes = false
			name := strings.TrimSpace(strings.TrimPrefix(line, "ISSUE:"))
			label, ok := issue.Parse(name)
			if !ok {
				label = issue.Label(name)
			}
			cur = &Finding{Label: label}
		case strings.HasPrefix(line, "Evidence:") && cur != nil:
			cur.Evidence = strings.TrimSpace(strings.TrimPrefix(line, "Evidence:"))
		case strings.HasPrefix(line, "Recommendation:") && cur != nil:
			cur.Recommendation = strings.TrimSpace(strings.TrimPrefix(line, "Recommendation:"))
		case strings.HasPrefix(line, "References:") && cur != nil:
			for _, k := range strings.Split(strings.TrimPrefix(line, "References:"), ",") {
				if k = strings.TrimSpace(k); k != "" {
					cur.Refs = append(cur.Refs, k)
				}
			}
		case line == "Notes:":
			flush()
			inNotes = true
		case inNotes && strings.HasPrefix(line, "- "):
			r.Notes = append(r.Notes, strings.TrimPrefix(line, "- "))
		case cur != nil && line != "":
			if cur.Evidence == "" {
				cur.Evidence = line
			} else {
				cur.Evidence += " " + line
			}
		case cur == nil && !inNotes && line != "" && seenHeader && len(r.Findings) == 0:
			preamble = append(preamble, line)
		}
	}
	flush()
	r.Preamble = strings.Join(preamble, " ")
	return r
}

// ClaimedLabels extracts the issue labels a diagnosis text claims, whether
// structured (ISSUE: lines) or free-form prose mentioning label names. The
// returned set is the caller's own.
func ClaimedLabels(text string) issue.Set {
	return maps.Clone(claimedLabels(text))
}

// labelTable memoises deriveClaimedLabels: the reuse gate and the tier
// self-check read one cached diagnosis once for its label F1 and once per
// judge permutation.
var labelTable textTable[issue.Set]

// claimedLabels is ClaimedLabels through labelTable. The set is shared
// with every other caller asking about the same text: read it, never
// write it.
func claimedLabels(text string) issue.Set {
	return labelTable.get(text, deriveClaimedLabels)
}

// deriveClaimedLabels is ClaimedLabels computed afresh.
func deriveClaimedLabels(text string) issue.Set {
	out := make(issue.Set)
	for l := range ParseReport(text).Labels() {
		if _, known := issue.Descriptions[l]; known {
			out[l] = true
		} else if parsed, ok := issue.Parse(string(l)); ok {
			out[parsed] = true
		}
	}
	for l := range issue.FindMentions(text) {
		out[l] = true
	}
	return out
}

// Labels returns the set of issue labels claimed by the report.
func (r *Report) Labels() issue.Set {
	s := make(issue.Set)
	for _, f := range r.Findings {
		s[f.Label] = true
	}
	return s
}

// MergeReports combines reports into one, deduplicating findings by label
// (evidence strings are joined, references unioned) and concatenating
// notes. This is the *lossless* reference merge; SimLLM's merge task
// degrades from it according to the model's merge capacity.
func MergeReports(reports []*Report) *Report {
	out := &Report{}
	byLabel := make(map[issue.Label]*Finding)
	var order []issue.Label
	noteSeen := make(map[string]bool)
	for _, rep := range reports {
		if out.Preamble == "" {
			out.Preamble = rep.Preamble
		}
		for _, f := range rep.Findings {
			ex, ok := byLabel[f.Label]
			if !ok {
				cp := f
				cp.Refs = append([]string(nil), f.Refs...)
				byLabel[f.Label] = &cp
				order = append(order, f.Label)
				continue
			}
			if f.Evidence != "" && !strings.Contains(ex.Evidence, f.Evidence) {
				if ex.Evidence != "" {
					ex.Evidence += " "
				}
				ex.Evidence += f.Evidence
			}
			if ex.Recommendation == "" {
				ex.Recommendation = f.Recommendation
			}
			ex.Refs = unionRefs(ex.Refs, f.Refs)
		}
		for _, n := range rep.Notes {
			if !noteSeen[n] {
				noteSeen[n] = true
				out.Notes = append(out.Notes, n)
			}
		}
	}
	for _, l := range order {
		out.Findings = append(out.Findings, *byLabel[l])
	}
	return out
}

func unionRefs(a, b []string) []string {
	seen := make(map[string]bool, len(a))
	out := append([]string(nil), a...)
	for _, k := range a {
		seen[k] = true
	}
	for _, k := range b {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// AllRefs returns the union of citation keys across findings, sorted.
func (r *Report) AllRefs() []string {
	seen := make(map[string]bool)
	for _, f := range r.Findings {
		for _, k := range f.Refs {
			seen[k] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Summary returns a one-line digest for logs and CLI output.
func (r *Report) Summary() string {
	labels := r.Labels().Sorted()
	if len(labels) == 0 {
		return "no issues detected"
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = string(l)
	}
	return fmt.Sprintf("%d issue(s): %s", len(labels), strings.Join(parts, "; "))
}
