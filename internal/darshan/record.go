package darshan

import (
	"fmt"
	"hash/fnv"
	"sort"

	"ioagent/internal/dxt"
)

// SharedRank is the rank value Darshan assigns to records that aggregate a
// file accessed by every rank (a "shared" file record).
const SharedRank = -1

// Mount describes one mount-table entry captured in the log header.
type Mount struct {
	Point  string // e.g. "/scratch"
	FSType string // e.g. "lustre", "gpfs", "nfs", "ext4"
}

// Job carries the per-execution header of a Darshan log.
type Job struct {
	UID       int
	JobID     int64
	StartTime int64 // unix seconds
	EndTime   int64 // unix seconds
	NProcs    int
	RunTime   float64 // seconds
	Exe       string
	Mounts    []Mount
	Metadata  map[string]string
}

// FileRecord holds the counters recorded for one (file, rank) pair within a
// module. Rank == SharedRank denotes a shared-file aggregate record.
type FileRecord struct {
	RecordID  uint64
	Rank      int
	Name      string // file path
	MountPt   string
	FSType    string
	Counters  map[string]int64
	FCounters map[string]float64
}

// NewFileRecord returns a record for the given path with empty counter maps
// and a deterministic RecordID derived from the path (as upstream Darshan
// hashes file names).
func NewFileRecord(path string, rank int) *FileRecord {
	return &FileRecord{
		RecordID:  HashRecordID(path),
		Rank:      rank,
		Name:      path,
		Counters:  make(map[string]int64),
		FCounters: make(map[string]float64),
	}
}

// HashRecordID derives the stable record identifier for a file path.
func HashRecordID(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64()
}

// C returns the integer counter value for name (zero when absent).
func (r *FileRecord) C(name string) int64 { return r.Counters[name] }

// F returns the float counter value for name (zero when absent).
func (r *FileRecord) F(name string) float64 { return r.FCounters[name] }

// AddC adds delta to the named integer counter.
func (r *FileRecord) AddC(name string, delta int64) { r.Counters[name] += delta }

// SetC sets the named integer counter.
func (r *FileRecord) SetC(name string, v int64) { r.Counters[name] = v }

// AddF adds delta to the named float counter.
func (r *FileRecord) AddF(name string, delta float64) { r.FCounters[name] += delta }

// SetF sets the named float counter.
func (r *FileRecord) SetF(name string, v float64) { r.FCounters[name] = v }

// MaxC raises the named integer counter to v if v is larger.
func (r *FileRecord) MaxC(name string, v int64) {
	if v > r.Counters[name] {
		r.Counters[name] = v
	}
}

// MaxF raises the named float counter to v if v is larger.
func (r *FileRecord) MaxF(name string, v float64) {
	if v > r.FCounters[name] {
		r.FCounters[name] = v
	}
}

// ModuleData groups the file records captured by one module.
type ModuleData struct {
	Module  ModuleID
	Records []*FileRecord
}

// Log is a fully decoded Darshan log.
type Log struct {
	Version string // log format version, e.g. "3.41"
	Job     Job
	Modules map[ModuleID]*ModuleData
	// DXT carries the per-operation extended-tracing event stream when the
	// log arrived as (or was derived from) a DXT rendering. Counter-only
	// logs leave it nil. Logs that carry it are a distinct trace modality:
	// their canonical form — the one ContentDigest hashes and Canonical
	// returns — is derived entirely from the event stream (see FromDXT),
	// so every rendering of the same events shares one content address.
	DXT *dxt.Trace
}

// NewLog returns an empty log with the current format version.
func NewLog() *Log {
	return &Log{
		Version: Version,
		Job:     Job{Metadata: make(map[string]string)},
		Modules: make(map[ModuleID]*ModuleData),
	}
}

// Version is the log format version written by this package.
const Version = "3.41"

// ShallowClone returns a copy of the log whose module map and record
// slices are private while the *FileRecord values themselves are shared:
// what a caller needs to reorder or filter records (SortRecords, WriteText)
// without touching a log other goroutines read. Encode and ContentDigest
// need no clone — they order records in codec-private scratch.
func (l *Log) ShallowClone() *Log {
	clone := &Log{
		Version: l.Version,
		Job:     l.Job,
		Modules: make(map[ModuleID]*ModuleData, len(l.Modules)),
		DXT:     l.DXT,
	}
	for m, md := range l.Modules {
		clone.Modules[m] = &ModuleData{
			Module:  md.Module,
			Records: append([]*FileRecord(nil), md.Records...),
		}
	}
	return clone
}

// Module returns the module data for m, creating it on first use.
func (l *Log) Module(m ModuleID) *ModuleData {
	md, ok := l.Modules[m]
	if !ok {
		md = &ModuleData{Module: m}
		l.Modules[m] = md
	}
	return md
}

// HasModule reports whether the log contains any records for module m.
func (l *Log) HasModule(m ModuleID) bool {
	md, ok := l.Modules[m]
	return ok && len(md.Records) > 0
}

// ModuleList returns the populated modules in canonical order.
func (l *Log) ModuleList() []ModuleID {
	var out []ModuleID
	for _, m := range AllModules {
		if l.HasModule(m) {
			out = append(out, m)
		}
	}
	return out
}

// Record finds the record of module m for the given path and rank, creating
// it if needed. Records are keyed by (RecordID, Rank).
func (md *ModuleData) Record(path string, rank int) *FileRecord {
	id := HashRecordID(path)
	for _, r := range md.Records {
		if r.RecordID == id && r.Rank == rank {
			return r
		}
	}
	r := NewFileRecord(path, rank)
	md.Records = append(md.Records, r)
	return r
}

// Find returns the record for (path, rank) or nil.
func (md *ModuleData) Find(path string, rank int) *FileRecord {
	id := HashRecordID(path)
	for _, r := range md.Records {
		if r.RecordID == id && r.Rank == rank {
			return r
		}
	}
	return nil
}

// SumC sums the named integer counter over all records of the module.
func (md *ModuleData) SumC(name string) int64 {
	var s int64
	for _, r := range md.Records {
		s += r.Counters[name]
	}
	return s
}

// SumF sums the named float counter over all records of the module.
func (md *ModuleData) SumF(name string) float64 {
	var s float64
	for _, r := range md.Records {
		s += r.FCounters[name]
	}
	return s
}

// Files returns the distinct file paths appearing in the module, sorted.
func (md *ModuleData) Files() []string {
	seen := make(map[string]bool)
	for _, r := range md.Records {
		seen[r.Name] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// SortRecords orders records by (Name, Rank) for deterministic output.
func (md *ModuleData) SortRecords() { sortRecords(md.Records) }

// Validate checks that every counter stored in the log is a legal counter
// name for its module. It returns the first violation found.
func (l *Log) Validate() error {
	for _, m := range AllModules {
		md, ok := l.Modules[m]
		if !ok {
			continue
		}
		for _, r := range md.Records {
			for name := range r.Counters {
				if !IsCounter(m, name) {
					return fmt.Errorf("darshan: record %q: %q is not a counter of module %s", r.Name, name, m)
				}
			}
			for name := range r.FCounters {
				if !IsFCounter(m, name) {
					return fmt.Errorf("darshan: record %q: %q is not an fcounter of module %s", r.Name, name, m)
				}
			}
		}
	}
	return nil
}

// TotalBytes returns aggregate bytes read and written across POSIX and STDIO
// (the interfaces that ultimately move data; MPI-IO bytes land in POSIX in
// real stacks, and our simulator follows that convention).
func (l *Log) TotalBytes() (read, written int64) {
	if md, ok := l.Modules[ModulePOSIX]; ok {
		read += md.SumC("POSIX_BYTES_READ")
		written += md.SumC("POSIX_BYTES_WRITTEN")
	}
	if md, ok := l.Modules[ModuleSTDIO]; ok {
		read += md.SumC("STDIO_BYTES_READ")
		written += md.SumC("STDIO_BYTES_WRITTEN")
	}
	return read, written
}
