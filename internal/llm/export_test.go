package llm

// CheckFactsAgainstOracle lets the external tests of this package, which
// may import the agent, hold ExtractFacts to the oracle.
var CheckFactsAgainstOracle = checkFactsAgainstOracle

// TruncateMiddle is truncateMiddle counting the tokens itself, for the
// tests here and the external ones that replay a prompt.
func TruncateMiddle(text string, max int) (string, bool) {
	return truncateMiddle(text, CountTokens(text), max)
}
