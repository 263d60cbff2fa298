// Package issue defines the canonical I/O performance issue vocabulary used
// across the repository: the 16 labels of the paper's Table II (with the
// read/write variants expanded as in Table III), their descriptions, and
// per-issue remediation guidance. Every tool (IOAgent, Drishti, ION), the
// TraceBench ground truth, and the evaluation harness share this vocabulary.
package issue

import (
	"sort"
	"strings"
)

// Label identifies one I/O performance issue class.
type Label string

// The TraceBench label set (paper Table II / Table III rows).
const (
	HighMetadataLoad  Label = "High Metadata Load"
	MisalignedReads   Label = "Misaligned Read Requests"
	MisalignedWrites  Label = "Misaligned Write Requests"
	RandomReads       Label = "Random Access Patterns on Read"
	RandomWrites      Label = "Random Access Patterns on Write"
	SharedFileAccess  Label = "Shared File Access"
	SmallReads        Label = "Small Read I/O Requests"
	SmallWrites       Label = "Small Write I/O Requests"
	RepetitiveReads   Label = "Repetitive Data Access on Read"
	ServerImbalance   Label = "Server Load Imbalance"
	RankImbalance     Label = "Rank Load Imbalance"
	MultiProcessNoMPI Label = "Multi-Process Without MPI"
	NoCollectiveRead  Label = "No Collective I/O on Read"
	NoCollectiveWrite Label = "No Collective I/O on Write"
	LowLevelLibRead   Label = "Low-Level Library on Read"
	LowLevelLibWrite  Label = "Low-Level Library on Write"
)

// All lists every label in Table III row order.
var All = []Label{
	HighMetadataLoad,
	MisalignedReads, MisalignedWrites,
	RandomWrites, RandomReads,
	SharedFileAccess,
	SmallReads, SmallWrites,
	RepetitiveReads,
	ServerImbalance, RankImbalance,
	MultiProcessNoMPI,
	NoCollectiveRead, NoCollectiveWrite,
	LowLevelLibRead, LowLevelLibWrite,
}

// Descriptions reproduces the description column of Table II.
var Descriptions = map[Label]string{
	HighMetadataLoad:  "The application spends a significant amount of time performing metadata operations (e.g., directory lookups, file system operations).",
	MisalignedReads:   "The application makes read requests that are not aligned with the file system's stripe boundaries.",
	MisalignedWrites:  "The application makes write requests that are not aligned with the file system's stripe boundaries.",
	RandomReads:       "The application issues read requests in a random access pattern.",
	RandomWrites:      "The application issues write requests in a random access pattern.",
	SharedFileAccess:  "The application has multiple processes or ranks accessing the same file.",
	SmallReads:        "The application is making frequent read requests with a small number of bytes.",
	SmallWrites:       "The application is making frequent write requests with a small number of bytes.",
	RepetitiveReads:   "The application is making read requests to the same data repeatedly.",
	ServerImbalance:   "The application issues a disproportionate amount of I/O traffic to some servers compared to others or does not properly utilize the available storage resources.",
	RankImbalance:     "The application has MPI ranks issuing a disproportionate amount of I/O traffic compared to others.",
	MultiProcessNoMPI: "The application has multiple processes but does not leverage MPI.",
	NoCollectiveRead:  "The application does not perform collective I/O on read operations.",
	NoCollectiveWrite: "The application does not perform collective I/O on write operations.",
	LowLevelLibRead:   "The application relies on a low-level library like STDIO for a significant amount of read operations outside of loading/reading configuration or output files.",
	LowLevelLibWrite:  "The application relies on a low-level library like STDIO for a significant amount of write operations outside of loading/reading configuration or output files.",
}

// Recommendations carries per-issue remediation guidance used by diagnosis
// reports and the interactive assistant.
var Recommendations = map[Label]string{
	HighMetadataLoad:  "Reduce per-file open/stat churn: aggregate many small files into container formats (HDF5, ADIOS), cache stat results, and avoid opening files inside inner loops.",
	MisalignedReads:   "Align read offsets with the file system stripe boundary (e.g. issue transfers at multiples of the stripe size) or set the stripe size to match the transfer size with lfs setstripe -S.",
	MisalignedWrites:  "Align write offsets with the file system stripe boundary or adjust the stripe size with lfs setstripe -S so writes start on stripe boundaries.",
	RandomReads:       "Restructure read loops to access data sequentially, batch and sort offsets before issuing them, or use MPI-IO collective reads so the library can reorder accesses.",
	RandomWrites:      "Buffer writes and flush them in offset order, or use collective buffering (MPI-IO write_all) to let aggregators linearize the access stream.",
	SharedFileAccess:  "Shared-file access is efficient only with collective I/O or careful stripe tuning; otherwise consider file-per-process or subfiling to avoid lock contention.",
	SmallReads:        "Batch small reads into larger transfers (at least 1 MiB), enable read-ahead/data sieving, or use a higher-level library that aggregates requests.",
	SmallWrites:       "Aggregate small writes into larger buffers before flushing (at least 1 MiB per request), or use MPI-IO collective buffering to combine per-rank fragments.",
	RepetitiveReads:   "Cache repeatedly-read data in memory (or burst buffer) instead of re-reading it from the parallel file system.",
	ServerImbalance:   "Spread large files over more storage targets: raise the Lustre stripe count (lfs setstripe -c) so traffic is distributed across OSTs instead of hammering one server.",
	RankImbalance:     "Rebalance the I/O decomposition so every rank moves a comparable volume, or route I/O through collective operations with even aggregator placement.",
	MultiProcessNoMPI: "Adopt MPI (or an MPI-IO based high-level library) so the processes can coordinate I/O instead of issuing uncoordinated POSIX streams.",
	NoCollectiveRead:  "Use MPI_File_read_all (or the collective mode of your high-level library) so the MPI-IO layer can merge per-rank requests into large contiguous transfers.",
	NoCollectiveWrite: "Use MPI_File_write_all (or enable collective buffering via hints like romio_cb_write) so aggregators issue large stripe-aligned writes.",
	LowLevelLibRead:   "Move bulk reads from STDIO (fread) to POSIX or, better, MPI-IO/HDF5; the buffered stdio layer serializes and copies every transfer.",
	LowLevelLibWrite:  "Move bulk writes from STDIO (fwrite) to POSIX or, better, MPI-IO/HDF5; stdio buffering adds copies and defeats parallel-file-system optimizations.",
}

// Topics maps each label to retrieval topic keywords used to align
// diagnoses with the knowledge corpus.
var Topics = map[Label][]string{
	HighMetadataLoad:  {"metadata", "stat", "open", "mdt"},
	MisalignedReads:   {"alignment", "stripe", "boundary", "read"},
	MisalignedWrites:  {"alignment", "stripe", "boundary", "write"},
	RandomReads:       {"random", "access", "pattern", "read", "sequential"},
	RandomWrites:      {"random", "access", "pattern", "write", "sequential"},
	SharedFileAccess:  {"shared", "file", "contention", "lock"},
	SmallReads:        {"small", "read", "request", "transfer", "size"},
	SmallWrites:       {"small", "write", "request", "transfer", "size"},
	RepetitiveReads:   {"repetitive", "reread", "cache", "read"},
	ServerImbalance:   {"stripe", "ost", "server", "imbalance", "count", "width"},
	RankImbalance:     {"rank", "imbalance", "straggler", "variance"},
	MultiProcessNoMPI: {"mpi", "process", "coordination", "posix"},
	NoCollectiveRead:  {"collective", "read", "mpi-io", "aggregation"},
	NoCollectiveWrite: {"collective", "write", "mpi-io", "aggregation", "two-phase"},
	LowLevelLibRead:   {"stdio", "buffered", "library", "read"},
	LowLevelLibWrite:  {"stdio", "buffered", "library", "write"},
}

// Parse maps a free-form issue mention back to a Label. Matching is
// case-insensitive and tolerant of the "[Read|Write]" phrasing variants the
// paper uses. It returns false when no label matches.
func Parse(s string) (Label, bool) {
	l, ok := byNormalized[normalize(s)]
	return l, ok
}

var aliases = map[string]Label{
	"Misaligned Read requests":              MisalignedReads,
	"Misaligned Write requests":             MisalignedWrites,
	"Small Read Requests":                   SmallReads,
	"Small Write Requests":                  SmallWrites,
	"Multi-Process W/O MPI":                 MultiProcessNoMPI,
	"Repetitive Data Access":                RepetitiveReads,
	"No Collective Read":                    NoCollectiveRead,
	"No Collective Write":                   NoCollectiveWrite,
	"Random Write Access":                   RandomWrites,
	"Random Read Access":                    RandomReads,
	"Low-Level Library on Read operations":  LowLevelLibRead,
	"Low-Level Library on Write operations": LowLevelLibWrite,
}

// normalizer and the two tables below are built once: Parse and
// FindMentions sit under every report the fleet scores, and normalizing
// the whole vocabulary per call was most of their cost.
var (
	normalizer = strings.NewReplacer("i/o", "io", "-", " ", "_", " ", "/", " ")
	// normalizedLabels[i] is normalize(All[i]).
	normalizedLabels = func() []string {
		out := make([]string, len(All))
		for i, l := range All {
			out[i] = normalize(string(l))
		}
		return out
	}()
	// byNormalized resolves a normalized mention; a canonical label wins
	// over an alias that normalizes to the same text.
	byNormalized = func() map[string]Label {
		m := make(map[string]Label, len(All)+len(aliases))
		for alias, l := range aliases {
			m[normalize(alias)] = l
		}
		for i, l := range All {
			m[normalizedLabels[i]] = l
		}
		return m
	}()
)

func normalize(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = normalizer.Replace(s)
	return strings.Join(strings.Fields(s), " ")
}

// Set is an order-independent collection of labels.
type Set map[Label]bool

// NewSet builds a Set from labels.
func NewSet(labels ...Label) Set {
	s := make(Set, len(labels))
	for _, l := range labels {
		s[l] = true
	}
	return s
}

// Sorted returns the labels in Table III row order.
func (s Set) Sorted() []Label {
	var out []Label
	for _, l := range All {
		if s[l] {
			out = append(out, l)
		}
	}
	// Include any non-canonical labels deterministically at the end.
	var extra []string
	for l := range s {
		if _, ok := Descriptions[l]; !ok {
			extra = append(extra, string(l))
		}
	}
	sort.Strings(extra)
	for _, e := range extra {
		out = append(out, Label(e))
	}
	return out
}

// F1 computes precision, recall and F1 of predicted labels against truth.
func F1(truth, predicted Set) (precision, recall, f1 float64) {
	if len(predicted) == 0 && len(truth) == 0 {
		return 1, 1, 1
	}
	var tp int
	for l := range predicted {
		if truth[l] {
			tp++
		}
	}
	if len(predicted) > 0 {
		precision = float64(tp) / float64(len(predicted))
	}
	if len(truth) > 0 {
		recall = float64(tp) / float64(len(truth))
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

// FindMentions scans free-form text for mentions of canonical issue labels
// (used to score unstructured diagnoses such as ION's prose output).
// Matching is case-insensitive over normalized text.
func FindMentions(text string) Set {
	norm := normalize(text)
	out := make(Set)
	for i, l := range All {
		if strings.Contains(norm, normalizedLabels[i]) {
			out[l] = true
		}
	}
	return out
}
