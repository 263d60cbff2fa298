// Package scenario generates the deterministic adversarial trace matrix
// the fleet's diagnosis quality is scored against. Each scenario is one
// iosim workload engineered to exhibit a known I/O pathology — tiny
// unaligned writes, a metadata storm, shared-file contention, straggler
// ranks — rendered in one of the two trace modalities the fleet ingests:
//
//   - "darshan": the aggregate-counter log, binary-encoded;
//   - "dxt": the per-operation extended-tracing text rendering, whose
//     counter view is derived by darshan.FromDXT.
//
// A scenario carries machine-checkable ground truth: the exact drishti
// label set its canonical log must trigger (Expected) and a committed
// minimum diagnosis score (Baseline) on the eval.ScoreDiagnosis scale.
// The expected sets differ per modality by design — DXT traces carry no
// metadata operations, so a metadata storm is invisible in the DXT
// rendering while its tiny-write component still shows — which is the
// modality contract ARCHITECTURE.md layer 10 documents.
//
// Everything here is deterministic: fixed simulator seeds, fixed
// workload shapes. The TestMatrix* tests (run under -race in CI) consume
// this matrix, scoring it through the agent alone and through a
// two-node cluster behind a router; a drishti, derivation, or pipeline
// change that shifts a scenario's labels or score below its committed
// values fails the build.
package scenario

import (
	"bytes"
	"log"

	"ioagent/internal/darshan"
	"ioagent/internal/dxt"
	"ioagent/internal/iosim"
	"ioagent/internal/issue"
)

// Scenario is one adversarial workload in one trace modality.
type Scenario struct {
	// Name identifies the scenario ("shared-file-contention-dxt").
	Name string
	// Modality is "darshan" (counter log) or "dxt" (per-operation text).
	Modality string
	// Expected is the exact drishti label set the scenario's canonical
	// log triggers — the machine-checkable ground truth.
	Expected issue.Set
	// Baseline is the committed minimum eval.ScoreDiagnosis verdict for
	// the fleet's diagnosis of this scenario; CI fails below it.
	Baseline float64
	// Build renders the scenario: the wire bytes a client would submit
	// (binary darshan or DXT text) and the decoded log they parse to.
	// Deterministic: every call yields identical bytes.
	Build func() (wire []byte, log *darshan.Log)
}

// Matrix returns the full scored scenario matrix, darshan scenarios
// first, then their DXT-rendered variants.
func Matrix() []Scenario {
	return []Scenario{
		{
			Name:     "tiny-unaligned-writes",
			Modality: "darshan",
			Expected: issue.NewSet(issue.SmallWrites, issue.MisalignedWrites),
			Baseline: 0.80,
			Build:    func() ([]byte, *darshan.Log) { return renderDarshan(tinyUnalignedWrites(false)) },
		},
		{
			Name:     "metadata-storm",
			Modality: "darshan",
			Expected: issue.NewSet(issue.HighMetadataLoad, issue.SmallWrites, issue.MisalignedWrites, issue.RandomWrites),
			Baseline: 0.85,
			Build:    func() ([]byte, *darshan.Log) { return renderDarshan(metadataStorm(false)) },
		},
		{
			Name:     "shared-file-contention",
			Modality: "darshan",
			Expected: issue.NewSet(issue.SharedFileAccess, issue.ServerImbalance),
			Baseline: 0.80,
			Build:    func() ([]byte, *darshan.Log) { return renderDarshan(sharedFileContention(false)) },
		},
		{
			Name:     "straggler-ranks",
			Modality: "darshan",
			Expected: issue.NewSet(issue.RankImbalance, issue.SharedFileAccess, issue.ServerImbalance),
			Baseline: 0.80,
			Build:    func() ([]byte, *darshan.Log) { return renderDarshan(stragglerRanks(false)) },
		},
		{
			// MisalignedWrites rides along in a read-only trace because
			// drishti's T07 heuristic cannot attribute the shared
			// POSIX_FILE_NOT_ALIGNED counter to a direction.
			Name:     "small-read-storm",
			Modality: "darshan",
			Expected: issue.NewSet(issue.SmallReads, issue.MisalignedReads, issue.MisalignedWrites, issue.RandomReads, issue.SharedFileAccess, issue.ServerImbalance),
			Baseline: 0.80,
			Build:    func() ([]byte, *darshan.Log) { return renderDarshan(smallReadStorm(false)) },
		},
		{
			Name:     "tiny-unaligned-writes-dxt",
			Modality: "dxt",
			Expected: issue.NewSet(issue.SmallWrites, issue.MisalignedWrites),
			Baseline: 0.80,
			Build:    func() ([]byte, *darshan.Log) { return renderDXT(tinyUnalignedWrites(true)) },
		},
		{
			// The storm's stat/open traffic does not exist in the DXT
			// event stream: only the tiny-write component survives the
			// modality change, so HighMetadataLoad is NOT expected here.
			Name:     "metadata-storm-dxt",
			Modality: "dxt",
			Expected: issue.NewSet(issue.SmallWrites, issue.MisalignedWrites, issue.RandomWrites),
			Baseline: 0.55,
			Build:    func() ([]byte, *darshan.Log) { return renderDXT(metadataStorm(true)) },
		},
		{
			Name:     "shared-file-contention-dxt",
			Modality: "dxt",
			Expected: issue.NewSet(issue.SharedFileAccess),
			Baseline: 0.75,
			Build:    func() ([]byte, *darshan.Log) { return renderDXT(sharedFileContention(true)) },
		},
		{
			// The DXT rendering loses the per-server distribution, so
			// ServerImbalance is NOT expected here; the data-path labels
			// (including T07's direction-blind misalignment pair) survive.
			Name:     "small-read-storm-dxt",
			Modality: "dxt",
			Expected: issue.NewSet(issue.SmallReads, issue.MisalignedReads, issue.MisalignedWrites, issue.RandomReads, issue.SharedFileAccess),
			Baseline: 0.75,
			Build:    func() ([]byte, *darshan.Log) { return renderDXT(smallReadStorm(true)) },
		},
		{
			Name:     "straggler-ranks-dxt",
			Modality: "dxt",
			Expected: issue.NewSet(issue.RankImbalance, issue.SharedFileAccess),
			Baseline: 0.70,
			Build:    func() ([]byte, *darshan.Log) { return renderDXT(stragglerRanks(true)) },
		},
	}
}

// renderDarshan encodes the simulated log in the binary rendering.
func renderDarshan(s *iosim.Sim) ([]byte, *darshan.Log) {
	l := s.Finalize()
	var buf bytes.Buffer
	if err := darshan.Encode(&buf, l); err != nil {
		log.Panicf("scenario: encode: %v", err) // deterministic inputs; cannot fail
	}
	return buf.Bytes(), l
}

// renderDXT renders the simulated per-operation stream as DXT text and
// derives its counter view, exactly as ingest will.
func renderDXT(s *iosim.Sim) ([]byte, *darshan.Log) {
	s.Finalize() // settle the simulation clock; the counter log is discarded
	t := s.DXT()
	return []byte(dxt.TextString(t)), darshan.FromDXT(t)
}

// tinyUnalignedWrites: every rank streams its own file in 3000-byte
// transfers — far below both the 1 MB "small" threshold and any block
// boundary, so nearly every request is small and file-unaligned.
func tinyUnalignedWrites(withDXT bool) *iosim.Sim {
	s := iosim.New(iosim.Config{Seed: 101, NProcs: 8, EnableDXT: withDXT})
	iosim.FilePerProcessWrite(s, "/scratch/tiny/out.%d", iosim.POSIX, nil, 512<<10, 3000)
	return s
}

// metadataStorm: a stat/open flood across hundreds of tiny per-rank
// files, plus the tiny writes that created them.
func metadataStorm(withDXT bool) *iosim.Sim {
	s := iosim.New(iosim.Config{Seed: 102, NProcs: 4, EnableDXT: withDXT})
	iosim.MetadataStorm(s, "/scratch/storm", 160, 4)
	iosim.FilePerProcessWrite(s, "/scratch/storm/data.%d", iosim.POSIX, nil, 64<<10, 1000)
	return s
}

// sharedFileContention: all ranks interleave 1 MB writes into one shared
// file.
func sharedFileContention(withDXT bool) *iosim.Sim {
	s := iosim.New(iosim.Config{Seed: 103, NProcs: 8, EnableDXT: withDXT})
	iosim.WriteShared(s, "/scratch/shared/checkpoint.h5", iosim.POSIX, nil, 64<<20, 1<<20)
	return s
}

// smallReadStorm: every rank hammers one shared input with tiny reads at
// random offsets — the under-buffered analysis reader that re-fetches
// scattered 4 KB records instead of streaming blocks.
func smallReadStorm(withDXT bool) *iosim.Sim {
	s := iosim.New(iosim.Config{Seed: 105, NProcs: 8, EnableDXT: withDXT})
	f := s.OpenShared("/scratch/analysis/input.dat", iosim.POSIX, false, nil)
	iosim.RandomReads(s, f, 400, 4000, 48<<20)
	return s
}

// stragglerRanks: one rank pays 6x the operation cost of its peers while
// all ranks write a shared file, so its I/O time dominates the mean.
func stragglerRanks(withDXT bool) *iosim.Sim {
	skew := []float64{1, 1, 1, 1, 1, 1, 1, 6}
	s := iosim.New(iosim.Config{Seed: 104, NProcs: 8, RankSkew: skew, EnableDXT: withDXT})
	iosim.WriteShared(s, "/scratch/skew/out.dat", iosim.POSIX, nil, 32<<20, 1<<20)
	return s
}
