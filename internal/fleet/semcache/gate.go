package semcache

import (
	"fmt"

	"ioagent/internal/darshan"
	"ioagent/internal/drishti"
	"ioagent/internal/issue"
	"ioagent/internal/judge"
	"ioagent/internal/llm"
)

// Gate decides whether a similarity candidate's cached diagnosis can be
// reused for a new trace.
type Gate struct {
	// Client evaluates the judge prompts (typically the pool's LLM client).
	Client llm.Client
	// Model is the judging model; a cheap tier is fine because the gate's
	// decision also leans on label agreement and vector similarity.
	// Defaults to gpt-4o-mini-sim.
	Model string
	// Threshold is the minimum blended confidence to allow reuse.
	// Defaults to DefaultGateThreshold.
	Threshold float64
}

// DefaultGateThreshold is the reuse cut-off for the blended confidence.
// The blend is 0.5·sim + 0.25·labelF1 + 0.25·judge: a label-matched
// candidate at the 0.85 similarity floor scores ≥ 0.75 with even a neutral
// judge verdict, while a label-mismatched one tops out near 0.67.
const DefaultGateThreshold = 0.70

// Decision is the gate's verdict on one candidate.
type Decision struct {
	// Reuse reports whether the cached diagnosis may be served.
	Reuse bool
	// Confidence is the blended score in [0, 1] compared against the
	// threshold; it is stamped on reused diagnoses as provenance.
	Confidence float64
	// LabelF1 and JudgeScore are the non-similarity components, exposed
	// for metrics and tests.
	LabelF1    float64
	JudgeScore float64
}

// Evaluate scores whether candidateText (the cached diagnosis of another
// trace) applies to log. sim is the feature-vector cosine similarity that
// proposed the candidate. It takes the trace's drishti labels itself; a
// caller that already holds them (Derive) calls EvaluateLabels.
func (g *Gate) Evaluate(log *darshan.Log, candidateText string, sim float64) (Decision, error) {
	return g.EvaluateLabels(drishti.Analyze(darshan.Canonical(log)).Labels(), candidateText, sim)
}

// EvaluateLabels is Evaluate against the new trace's drishti labels.
//
// Confidence blends three independent views of "same diagnosis":
//
//   - sim (weight 0.5): how close the traces' I/O profiles are;
//   - label F1 (weight 0.25): agreement between the labels the cached
//     diagnosis claims and the new trace's own drishti heuristic labels —
//     an LLM-free cross-check that catches reuse across workloads that
//     happen to have nearby counter profiles but different issues;
//   - judge score (weight 0.25): an LLM judge ranking the cached diagnosis
//     against judge.NullReport under the accuracy criterion, with the new
//     trace's heuristic labels as ground truth.
//
// The last two are judge.AgainstNull, the kernel eval.ScoreDiagnosis
// scores the scenario matrix with. Gate errors (judge transport,
// malformed rankings) are returned so the caller can fall through to a
// fresh diagnosis rather than guess.
func (g *Gate) EvaluateLabels(truth issue.Set, candidateText string, sim float64) (Decision, error) {
	fit, err := judge.AgainstNull(g.Client, g.model(), truth, candidateText)
	if err != nil {
		return Decision{}, fmt.Errorf("semcache: gate: %w", err)
	}
	conf := 0.5*sim + 0.25*fit.LabelF1 + 0.25*fit.Judge
	threshold := g.Threshold
	if threshold <= 0 {
		threshold = DefaultGateThreshold
	}
	return Decision{
		Reuse:      conf >= threshold,
		Confidence: conf,
		LabelF1:    fit.LabelF1,
		JudgeScore: fit.Judge,
	}, nil
}

// ScoreDiagnosis rates how well a freshly produced diagnosis fits the
// trace whose drishti labels are truth: judge.AgainstNull's even blend of
// label F1 and judge verdict, with no similarity term — the diagnosis is
// OF this trace, there is no candidate distance. The fleet's tier
// scheduler compares the score against its escalation threshold: a cheap
// model whose answer already agrees with the heuristics and beats the
// null report needs no frontier-model second opinion.
func (g *Gate) ScoreDiagnosis(truth issue.Set, diagnosisText string) (float64, error) {
	fit, err := judge.AgainstNull(g.Client, g.model(), truth, diagnosisText)
	if err != nil {
		return 0, fmt.Errorf("semcache: score: %w", err)
	}
	return fit.Score(), nil
}

// model is the judging model, gpt-4o-mini-sim unless Model says otherwise.
func (g *Gate) model() string {
	if g.Model == "" {
		return llm.GPT4oMini
	}
	return g.Model
}
