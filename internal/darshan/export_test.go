package darshan

// The in-package oracles, for the external tests that need packages which
// themselves import darshan (scenario).
var (
	OracleFromDXT = oracleFromDXT
	DiffLogs      = diffLogs
)

// Record finds the module's record for path and rank, creating it if
// needed: the tests' way to build a log by hand.
func (md *ModuleData) Record(path string, rank int) *FileRecord {
	if r := md.Find(path, rank); r != nil {
		return r
	}
	r := NewFileRecord(path, rank)
	md.Records = append(md.Records, r)
	return r
}
