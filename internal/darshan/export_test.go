package darshan

// The in-package oracles, for the external tests that need packages which
// themselves import darshan (scenario).
var (
	OracleFromDXT = oracleFromDXT
	DiffLogs      = diffLogs
)
