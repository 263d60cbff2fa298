package llm_test

import (
	"sync"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
	"ioagent/internal/scenario"
	"ioagent/internal/tracebench"
)

// promptTap is an llm.Client that keeps the text the simulator extracts
// facts from: the flattened prompt, cut to the model's window.
type promptTap struct {
	inner llm.Client

	mu      sync.Mutex
	prompts []string
}

func (p *promptTap) Complete(req llm.Request) (llm.Response, error) {
	text := llm.JoinPrompt(req.Messages)
	if spec, ok := llm.LookupModel(req.Model); ok {
		text, _ = llm.TruncateMiddle(text, spec.ContextWindow)
	}
	p.mu.Lock()
	p.prompts = append(p.prompts, text)
	p.mu.Unlock()
	return p.inner.Complete(req)
}

// TestExtractFactsMatchesOracleOnAgentPrompts: over every prompt the agent
// issues while diagnosing the TraceBench suite and the scenario matrix,
// and over each TraceBench log's parser text (what ION and the plain-model
// baselines put in a prompt, the counter-line path), the guarded
// ExtractFacts reads what the unguarded one read.
func TestExtractFactsMatchesOracleOnAgentPrompts(t *testing.T) {
	var logs []*darshan.Log
	for _, tr := range tracebench.Suite() {
		logs = append(logs, tr.Log())
		text, err := darshan.TextString(tr.Log())
		if err != nil {
			t.Fatal(err)
		}
		llm.CheckFactsAgainstOracle(t, text)
	}
	for _, sc := range scenario.Matrix() {
		_, log := sc.Build()
		logs = append(logs, log)
	}
	tap := &promptTap{inner: llm.NewSim()}
	for _, log := range logs {
		if _, err := ioagent.New(tap, ioagent.Options{}).Diagnose(log); err != nil {
			t.Fatal(err)
		}
	}
	if len(tap.prompts) < 20*len(logs) {
		t.Fatalf("tapped %d prompts over %d diagnoses, want > 20 each", len(tap.prompts), len(logs))
	}
	for _, text := range tap.prompts {
		llm.CheckFactsAgainstOracle(t, text)
	}
}
