package llm

import "strings"

// CountTokens approximates the token count of text. Real tokenizers emit
// roughly 4/3 tokens per whitespace-separated word of technical English;
// the exact constant is irrelevant here as long as counting is
// deterministic and monotone in text length.
func CountTokens(text string) int {
	words := 0
	inWord := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c == ' ' || c == '\n' || c == '\t' || c == '\r' {
			inWord = false
			continue
		}
		if !inWord {
			words++
			inWord = true
		}
	}
	return words + words/3
}

// truncMarker is inserted where the middle of an over-long prompt was
// dropped.
const truncMarker = "[... context truncated ...]"

// truncateMiddle enforces a context window of max tokens over text, whose
// token count the caller has already taken, modeling the lost-in-the-middle
// effect: when the text exceeds the window, the head and tail survive and
// the middle is dropped. Truncation operates on whole lines. It returns
// the surviving text and whether truncation occurred.
func truncateMiddle(text string, tokens, max int) (string, bool) {
	if tokens <= max {
		return text, false
	}
	lines := strings.Split(text, "\n")
	headBudget := max * 45 / 100
	tailBudget := max * 45 / 100

	var head []string
	used := 0
	i := 0
	for ; i < len(lines); i++ {
		t := CountTokens(lines[i]) + 1
		if used+t > headBudget {
			break
		}
		head = append(head, lines[i])
		used += t
	}
	var tail []string
	used = 0
	j := len(lines) - 1
	for ; j > i; j-- {
		t := CountTokens(lines[j]) + 1
		if used+t > tailBudget {
			break
		}
		tail = append([]string{lines[j]}, tail...)
		used += t
	}
	out := strings.Join(head, "\n") + "\n" + truncMarker + "\n" + strings.Join(tail, "\n")
	return out, true
}
