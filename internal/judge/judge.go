// Package judge implements the paper's LLM-based rating system (Section
// VI-B): diagnosis outputs from multiple tools are ranked 1..4 per
// evaluation criterion by a capable LLM, with three prompt augmentations
// that cancel the judge's biases (Fig. 4):
//
//	A. candidate names are anonymized (Tool-1..Tool-N);
//	B. the rank-assignment order in the response format rotates;
//	C. the order candidates appear in the prompt rotates.
//
// Each sample is ranked over at least four permutations so every rotation
// appears, and ranks are averaged. Scores follow Eqs. (1)-(2): a rank R
// contributes (4-R), summed per source and normalized by 3·|D|.
package judge

import (
	"fmt"
	"regexp"
	"strings"

	"ioagent/internal/issue"
	"ioagent/internal/llm"
)

// Criteria evaluated per the paper.
const (
	Accuracy         = "accuracy"
	Utility          = "utility"
	Interpretability = "interpretability"
)

// Criteria lists the three evaluation criteria in paper order.
var Criteria = []string{Accuracy, Utility, Interpretability}

// Entry is one tool's diagnosis of one trace.
type Entry struct {
	Tool string // real tool name
	Text string // diagnosis output
}

// Augmentations toggles the three bias-canceling prompt augmentations.
type Augmentations struct {
	Anonymize     bool // A: hide tool names
	RotateFormat  bool // B: rotate the rank-assignment order
	RotateContent bool // C: rotate candidate order in the prompt
}

// All enables every augmentation (the paper's configuration).
func All() Augmentations {
	return Augmentations{Anonymize: true, RotateFormat: true, RotateContent: true}
}

// None disables every augmentation (the ablation baseline).
func None() Augmentations { return Augmentations{} }

// Judge ranks diagnosis outputs with an LLM.
type Judge struct {
	Client llm.Client
	// Model is the ranking model (default gpt-4o-sim, as in the paper).
	Model string
	// Permutations is the number of ranking repetitions (default 4).
	Permutations int
	// Augment selects the bias-canceling augmentations.
	Augment Augmentations
}

// New builds a judge with the paper's defaults.
func New(client llm.Client) *Judge {
	return &Judge{Client: client, Model: llm.GPT4o, Permutations: 4, Augment: All()}
}

// MeanRanks ranks the entries under one criterion across the configured
// permutations and returns each entry's mean rank (1 = best). For the
// accuracy criterion, truth supplies the ground-truth labels included in
// the prompt.
func (j *Judge) MeanRanks(entries []Entry, criterion string, truth issue.Set) ([]float64, error) {
	n := len(entries)
	if n == 0 {
		return nil, fmt.Errorf("judge: no entries")
	}
	perms := j.Permutations
	if perms <= 0 {
		perms = 4
	}
	model := j.Model
	if model == "" {
		model = llm.GPT4o
	}

	sums := make([]float64, n)
	for p := 0; p < perms; p++ {
		contentOrder := identity(n)
		if j.Augment.RotateContent {
			contentOrder = rotate(identity(n), p)
		}
		formatOrder := identity(n)
		if j.Augment.RotateFormat {
			formatOrder = rotate(identity(n), (p+1)%n)
		}

		prompt, names := j.buildPrompt(entries, criterion, truth, contentOrder, formatOrder)
		resp, err := j.Client.Complete(llm.Prompt(model, prompt))
		if err != nil {
			return nil, fmt.Errorf("judge: %w", err)
		}
		ranks, err := parseRanks(resp.Content, names)
		if err != nil {
			return nil, err
		}
		// names[i] corresponds to entries[contentOrder[i]].
		for i, r := range ranks {
			sums[contentOrder[i]] += float64(r)
		}
	}
	for i := range sums {
		sums[i] /= float64(perms)
	}
	return sums, nil
}

// buildPrompt renders the ranking prompt for one permutation and returns
// the candidate display names in content order.
func (j *Judge) buildPrompt(entries []Entry, criterion string, truth issue.Set, contentOrder, formatOrder []int) (string, []string) {
	var b strings.Builder
	b.WriteString("TASK: rank\n")
	fmt.Fprintf(&b, "CRITERION: %s\n", criterion)
	fmt.Fprintf(&b, "Rank the candidate diagnoses from best (rank 1) to worst (rank %d) under the stated criterion: %s.\n",
		len(entries), criterionDescription(criterion))
	b.WriteString("Explain the reasoning behind the assigned positions.\n")

	if criterion == Accuracy && truth != nil {
		b.WriteString("\nGROUND TRUTH ISSUES:\n")
		for _, l := range truth.Sorted() {
			fmt.Fprintf(&b, "- %s\n", l)
		}
		b.WriteString("\n")
	}

	// Augmentation B: the response-format section lists rank slots in a
	// rotated candidate order.
	fmtParts := make([]string, len(formatOrder))
	for i, idx := range formatOrder {
		fmtParts[i] = fmt.Sprintf("%d", posInOrder(contentOrder, idx))
	}
	fmt.Fprintf(&b, "FORMAT ORDER: %s\n\n", strings.Join(fmtParts, ", "))

	names := make([]string, len(contentOrder))
	for i, idx := range contentOrder {
		name := entries[idx].Tool
		if j.Augment.Anonymize {
			name = fmt.Sprintf("Tool-%d", i+1)
		}
		names[i] = name
		fmt.Fprintf(&b, "=== CANDIDATE %s ===\n%s\n", name, entries[idx].Text)
	}
	b.WriteString("=== END CANDIDATES ===\n")
	return b.String(), names
}

func criterionDescription(c string) string {
	switch c {
	case Utility:
		return "how useful the information is for understanding the application's I/O behavior, identifying performance issues, and determining how to address each noted issue (regardless of factuality)"
	case Interpretability:
		return "how readable and understandable the provided information is for users at any level of familiarity with HPC I/O"
	default:
		return "how accurately the ground truth issue labels are diagnosed"
	}
}

var rankLineRe = regexp.MustCompile(`(?m)^RANK (\d+): (.+)$`)

// parseRanks maps each display name to its assigned rank. A reply is
// rejected — not silently repaired — when it names a candidate twice, hands
// out the same rank twice, or uses a rank outside [1, len(names)]: averaging
// a malformed permutation would corrupt every candidate's mean, so the
// caller must treat the whole reply as unusable.
func parseRanks(content string, names []string) ([]int, error) {
	n := len(names)
	assigned := make(map[string]int)
	usedRank := make(map[int]string)
	for _, m := range rankLineRe.FindAllStringSubmatch(content, -1) {
		var r int
		fmt.Sscanf(m[1], "%d", &r)
		name := strings.TrimSpace(m[2])
		if r < 1 || r > n {
			return nil, fmt.Errorf("judge: rank %d for %q out of range [1, %d]:\n%s", r, name, n, content)
		}
		if prev, dup := assigned[name]; dup {
			return nil, fmt.Errorf("judge: %q ranked twice (%d and %d):\n%s", name, prev, r, content)
		}
		if holder, dup := usedRank[r]; dup {
			return nil, fmt.Errorf("judge: rank %d assigned to both %q and %q:\n%s", r, holder, name, content)
		}
		assigned[name] = r
		usedRank[r] = name
	}
	ranks := make([]int, n)
	for i, name := range names {
		r, ok := assigned[name]
		if !ok {
			return nil, fmt.Errorf("judge: response missing rank for %q:\n%s", name, content)
		}
		ranks[i] = r
	}
	return ranks, nil
}

// NullReport is the fixed baseline AgainstNull ranks a diagnosis against:
// the report that claims no issues at all. A diagnosis that names the
// trace's real issues beats "nothing is wrong" decisively; one that claims
// the wrong issues loses ground to it. Scoring every diagnosis against the
// same null hypothesis puts the fleet's reuse gate, its tier self-check
// and the scenario verdicts on one scale.
const NullReport = "No significant I/O performance issues detected."

// Fit is how well one diagnosis text fits a trace's ground-truth labels.
type Fit struct {
	// LabelF1 is the F1 of the labels the text claims against the truth.
	LabelF1 float64
	// Judge maps the text's mean accuracy rank against NullReport onto
	// [0, 1]: rank 1 (always wins) scores 1.0, rank 2 (always loses) 0.0.
	Judge float64
}

// Score blends the two views equally: 0.5·LabelF1 + 0.5·Judge.
func (f Fit) Score() float64 { return 0.5*f.LabelF1 + 0.5*f.Judge }

// AgainstNull scores text against truth: label agreement, and a two-
// permutation, fully augmented accuracy ranking against NullReport by
// model (empty means this package's default judge model).
func AgainstNull(client llm.Client, model string, truth issue.Set, text string) (Fit, error) {
	_, _, f1 := issue.F1(truth, llm.ClaimedLabels(text))
	j := &Judge{Client: client, Model: model, Permutations: 2, Augment: All()}
	entries := []Entry{
		{Tool: "diagnosis", Text: text},
		{Tool: "baseline", Text: NullReport},
	}
	ranks, err := j.MeanRanks(entries, Accuracy, truth)
	if err != nil {
		return Fit{}, err
	}
	return Fit{LabelF1: f1, Judge: min(max(2-ranks[0], 0), 1)}, nil
}

// Score converts a mean rank into the paper's per-sample score 4 - R.
func Score(meanRank float64) float64 { return 4 - meanRank }

// Normalize converts a summed score over |D| samples into Eq. (2)'s
// normalized score in [0,1].
func Normalize(sum float64, samples int) float64 {
	if samples == 0 {
		return 0
	}
	return sum / (3 * float64(samples))
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func rotate(xs []int, k int) []int {
	n := len(xs)
	if n == 0 {
		return xs
	}
	k %= n
	return append(xs[k:], xs[:k]...)
}

func posInOrder(order []int, idx int) int {
	for pos, v := range order {
		if v == idx {
			return pos
		}
	}
	return 0
}
