package llm

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"ioagent/internal/issue"
)

// rank implements the LLM-as-judge task (paper Section VI-B). The judge
// scores each candidate diagnosis under the requested criterion and emits a
// best-to-worst ranking with an explanation. Crucially for the paper's
// Fig. 4 ablation, the judge also exhibits the biases the augmentations are
// designed to cancel:
//
//   - positional bias: candidates appearing earlier in the prompt receive a
//     small bonus (canceled by rotating content order, augmentation C);
//   - format-order bias: the candidate named first in the response-format
//     instruction receives a small bonus (canceled by rotating the rank
//     assignment order, augmentation B);
//   - name bias: recognizable tool names carry a prior (canceled by
//     anonymizing candidate names, augmentation A).
func (s *SimLLM) rank(prompt string, f *FactSet, spec ModelSpec, rng *rand.Rand) string {
	cands := f.Candidates
	if len(cands) == 0 {
		return "RANKING (best to worst):\nEXPLANATION: no candidates provided"
	}
	truth := make(issue.Set)
	for _, t := range f.Truth {
		if l, ok := issue.Parse(t); ok {
			truth[l] = true
		}
	}
	criterion := f.Criterion
	if criterion == "" {
		criterion = "accuracy"
	}

	formatOrder := parseFormatOrder(prompt, len(cands))
	anonymous := allAnonymous(cands)

	type scored struct {
		idx   int
		name  string
		score float64
		base  float64
	}
	out := make([]scored, len(cands))
	for i, c := range cands {
		var base float64
		switch criterion {
		case "utility":
			base = utilityScore(c.Text)
		case "interpretability":
			base = interpretabilityScore(c.Text)
		default:
			base = accuracyScore(c.Text, truth)
		}
		score := base
		// Judge noise.
		score += rng.NormFloat64() * judgeNoise(criterion)
		// Positional bias (content order).
		if len(cands) > 1 {
			score += 0.06 * float64(len(cands)-1-i) / float64(len(cands)-1)
		}
		// Format-order bias (rank assignment order).
		if len(formatOrder) > 0 && formatOrder[0] == i {
			score += 0.04
		}
		// Name bias.
		if !anonymous {
			score += (hash01(c.Name) - 0.5) * 0.12
		}
		out[i] = scored{idx: i, name: c.Name, score: score, base: base}
	}
	// Stable sort best-first; ties break by prompt order (itself a bias,
	// but one the content rotation also cancels).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].score > out[j-1].score; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}

	var b strings.Builder
	b.WriteString("RANKING (best to worst):\n")
	for i, sc := range out {
		fmt.Fprintf(&b, "RANK %d: %s\n", i+1, sc.name)
	}
	fmt.Fprintf(&b, "EXPLANATION: ranked by %s; %s provided the strongest result", criterion, out[0].name)
	if len(truth) > 0 && criterion == "accuracy" {
		fmt.Fprintf(&b, ", matching the labeled issues most closely (F1 %.2f)", out[0].base)
	}
	b.WriteString(".\n")
	return b.String()
}

// judgeNoise is the standard deviation of the judge's scoring noise. The
// sizeable values reflect how subjective single-shot LLM rankings are —
// exactly why the paper averages four permutations per sample.
func judgeNoise(criterion string) float64 {
	switch criterion {
	case "utility", "interpretability":
		return 0.22
	default:
		return 0.16
	}
}

var formatOrderRe = regexp.MustCompile(`(?m)^FORMAT ORDER:\s*([0-9,\s]+)$`)

func parseFormatOrder(prompt string, n int) []int {
	m := formatOrderRe.FindStringSubmatch(prompt)
	if m == nil {
		return nil
	}
	var out []int
	for _, part := range strings.Split(m[1], ",") {
		if v, err := strconv.Atoi(strings.TrimSpace(part)); err == nil && v >= 0 && v < n {
			out = append(out, v)
		}
	}
	return out
}

var anonNameRe = regexp.MustCompile(`^Tool-\d+$`)

func allAnonymous(cands []Candidate) bool {
	for _, c := range cands {
		if !anonNameRe.MatchString(c.Name) {
			return false
		}
	}
	return true
}

func hash01(s string) float64 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return float64(h.Sum32()%1000) / 999.0
}

// accuracyScore measures how well the candidate's claimed issues match the
// ground-truth labels (F1). Both structured reports and free-form prose
// are scored via ClaimedLabels.
func accuracyScore(text string, truth issue.Set) float64 {
	_, _, f1 := issue.F1(truth, ClaimedLabels(text))
	return f1
}

var digitRunRe = regexp.MustCompile(`\d+(\.\d+)?%?`)

// recommendationMarkers signal actionable advice in prose.
var recommendationMarkers = []string{
	"Recommendation:", "Consider", "consider", "should", "Use ", "use MPI",
	"Aggregate", "aggregate", "Align", "align", "Raise", "raise",
}

// utilityScore rates how actionable and information-dense a diagnosis is:
// claimed issues with concrete numbers, advice, references, and commands
// all help; burying few findings in a long report hurts (detail overload —
// the effect that costs the frontier model on simple traces).
func utilityScore(text string) float64 {
	n := len(ClaimedLabels(text))
	if n == 0 {
		return 0.05
	}
	words := len(strings.Fields(text))
	digits := len(digitRunRe.FindAllString(text, -1))
	advice := 0
	for _, m := range recommendationMarkers {
		advice += strings.Count(text, m)
	}
	var score float64
	score += 0.20 * minf(1, float64(advice)/float64(n)) // advice per finding
	score += 0.20 * minf(1, float64(digits)/45)         // absolute evidence depth
	score += 0.20 * minf(1, float64(n)/4)               // issue coverage
	if strings.Contains(text, "References:") {
		score += 0.15 // grounded, citable advice
	}
	if strings.Contains(text, "lfs setstripe") || strings.Contains(text, "MPI_File") ||
		strings.Contains(text, "romio_") {
		score += 0.10 // concrete commands
	}
	if nn := len(ParseReport(text).Notes); nn >= 2 {
		score += 0.10 // contextual observations beyond the findings
	}
	// Detail overload vs crispness: simple cases (few issues) read best as
	// short, direct answers (the paper's "too many details in such basic
	// cases"); long reports are fine when there is much to report.
	switch {
	case n <= 3 && words > 250:
		score -= 0.18
	case n <= 3 && words <= 220:
		score += 0.10
	case words >= 15*n:
		score += 0.08
	}
	return clamp01(score)
}

var jargonRe = regexp.MustCompile(`\b[A-Z][A-Z0-9]*(_[A-Z0-9]+)+\b`)

// interpretabilityScore rates readability: explicit structure, plain
// language, explanatory sentences, and proportionate length.
func interpretabilityScore(text string) float64 {
	words := len(strings.Fields(text))
	if words == 0 {
		return 0
	}
	rep := ParseReport(text)
	n := len(rep.Findings)
	claimed := len(ClaimedLabels(text))
	var score float64
	if n > 0 {
		score += 0.30 // structured findings with explicit issue headers
	} else if claimed > 0 {
		score += 0.30 // issues only discoverable by reading the prose
	}
	// Jargon density: raw counter names are opaque to domain scientists.
	jargon := len(jargonRe.FindAllString(text, -1))
	score -= minf(0.30, 3*float64(jargon)/float64(words))
	// Explanatory evidence in full sentences (14+ words reads as a real
	// explanation; clipped clauses do not).
	withEvidence := 0
	for _, f := range rep.Findings {
		if len(strings.Fields(f.Evidence)) >= 14 {
			withEvidence++
		}
	}
	if n > 0 {
		score += 0.30 * float64(withEvidence) / float64(n)
	}
	// Proportionate length: simple cases read best short and direct;
	// telegraphic one-liners explain nothing.
	if claimed > 0 {
		switch {
		case claimed <= 3 && words > 250:
			score -= 0.18
		case claimed <= 3 && words <= 220 && words >= 10*claimed:
			score += 0.15 + 0.12
		case words >= 10*claimed:
			score += 0.15
		default:
			score -= 0.10
		}
	}
	return clamp01(score)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
