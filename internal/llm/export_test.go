package llm

// CheckFactsAgainstOracle lets the external tests of this package, which
// may import the agent, hold ExtractFacts to the oracle.
var CheckFactsAgainstOracle = checkFactsAgainstOracle
