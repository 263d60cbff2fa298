package eval

import (
	"fmt"

	"ioagent/internal/issue"
	"ioagent/internal/judge"
	"ioagent/internal/llm"
)

// ScoreDiagnosis rates one diagnosis text against a known expected label
// set, blending label agreement and an LLM judge verdict equally:
//
//	score = 0.5·F1(expected, claimed) + 0.5·judge
//
// where judge maps the diagnosis's mean rank against judge.NullReport
// (rank 1 — always wins — scores 1.0; rank 2 scores 0.0). The result is
// in [0, 1]. This is the per-scenario verdict internal/scenario's matrix
// tests compare against committed baselines; the fleet's reuse gate and
// tier self-check run the same kernel, judge.AgainstNull.
func ScoreDiagnosis(client llm.Client, model string, expected issue.Set, diagnosisText string) (float64, error) {
	fit, err := judge.AgainstNull(client, model, expected, diagnosisText)
	if err != nil {
		return 0, fmt.Errorf("eval: score diagnosis: %w", err)
	}
	return fit.Score(), nil
}
