package vectordb

// The corpus helpers, exported to the external tests in recall_test.go,
// which also import the built-in corpus (internal/knowledge imports this
// package, so only an external test can see both).
var (
	SynthDocs    = synthDocs
	SynthQueries = synthQueries
	BuildPair    = buildPair
)
