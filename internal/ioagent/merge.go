package ioagent

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"ioagent/internal/llm"
)

// mergePair asks the model to merge two (or, for the one-shot ablation,
// many) diagnosis summaries into one.
func (a *Agent) mergeCall(summaries []string) (string, error) {
	var b strings.Builder
	b.WriteString("TASK: merge\n")
	b.WriteString("Merge the following diagnosis summaries into a single comprehensive diagnosis. ")
	b.WriteString("Remove redundancy, resolve contradictions, and keep every distinct finding with its references.\n")
	for i, s := range summaries {
		b.WriteString("--- SUMMARY ")
		b.WriteString(strconv.Itoa(i + 1))
		b.WriteString(" ---\n")
		b.WriteString(s)
		b.WriteString("\n")
	}
	b.WriteString("--- END SUMMARIES ---\n")
	resp, err := a.client.Complete(llm.Prompt(a.model, b.String()))
	if err != nil {
		return "", fmt.Errorf("merge: %w", err)
	}
	a.addCost(resp)
	return resp.Content, nil
}

// TreeMerge merges diagnosis summaries pairwise, level by level, running
// each level's merges in parallel (paper Section IV-C). An odd summary is
// carried to the next level unmerged.
func (a *Agent) TreeMerge(summaries []string) (string, error) {
	if len(summaries) == 0 {
		return "", fmt.Errorf("ioagent: nothing to merge")
	}
	level := append([]string(nil), summaries...)
	for len(level) > 1 {
		pairs := len(level) / 2
		next := make([]string, pairs)
		errs := make([]error, pairs)
		var wg sync.WaitGroup
		for i := 0; i < pairs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				next[i], errs[i] = a.mergeCall([]string{level[2*i], level[2*i+1]})
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return "", err
			}
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0], nil
}

// OneShotMerge merges all summaries in a single call — the ablation
// baseline of Fig. 6, which loses findings and references as the fan-in
// exceeds the model's merge capacity.
func (a *Agent) OneShotMerge(summaries []string) (string, error) {
	if len(summaries) == 0 {
		return "", fmt.Errorf("ioagent: nothing to merge")
	}
	if len(summaries) == 1 {
		return summaries[0], nil
	}
	return a.mergeCall(summaries)
}
