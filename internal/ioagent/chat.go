package ioagent

import (
	"fmt"
	"strings"

	"ioagent/internal/llm"
)

// Session is a post-diagnosis interactive conversation (paper Fig. 5): the
// user keeps asking questions and every answer is grounded in the diagnosis
// context and its references.
type Session struct {
	agent     *Agent
	diagnosis string
	history   []llm.Message
}

// NewSession starts an interactive session over a completed diagnosis.
func (a *Agent) NewSession(result *Result) *Session {
	return &Session{agent: a, diagnosis: result.Text}
}

// Ask answers a follow-up question using the diagnosis as context.
func (s *Session) Ask(question string) (string, error) {
	var b strings.Builder
	b.WriteString("TASK: chat\n")
	b.WriteString("PRIOR DIAGNOSIS:\n")
	b.WriteString(s.diagnosis)
	b.WriteString("\n")
	for _, m := range s.history {
		fmt.Fprintf(&b, "[%s]\n%s\n", m.Role, m.Content)
	}
	fmt.Fprintf(&b, "QUESTION: %s\n", question)

	resp, err := s.agent.client.Complete(llm.Prompt(s.agent.model, b.String()))
	if err != nil {
		return "", fmt.Errorf("chat: %w", err)
	}
	s.agent.addCost(resp)
	s.history = append(s.history,
		llm.Message{Role: llm.RoleUser, Content: question},
		llm.Message{Role: llm.RoleAssistant, Content: resp.Content},
	)
	return resp.Content, nil
}
