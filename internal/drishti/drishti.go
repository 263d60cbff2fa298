// Package drishti reimplements the Drishti baseline (Bez et al., PDSW
// 2022): a heuristic I/O-issue detector driven by fixed-threshold triggers
// over Darshan counters. Drishti is fast and deterministic, but — as the
// paper discusses — its thresholds are hard-coded, its explanations are
// canned messages tied to triggers, and it offers no interactive follow-up.
//
// This implementation carries 30 triggers (the count the paper attributes
// to Drishti) spanning informational observations and issue detections.
// Detections map onto the shared issue vocabulary so the evaluation harness
// can score them; several triggers intentionally do not distinguish cases
// the TraceBench labels separate (e.g. alignment is flagged for both
// directions at once), reproducing the precision limits of fixed heuristics.
package drishti

import (
	"fmt"
	"strings"

	"ioagent/internal/darshan"
	"ioagent/internal/issue"
	"ioagent/internal/llm"
)

// Severity of a trigger hit.
type Severity int

// Severity levels (mirroring Drishti's OK/INFO/WARN/CRITICAL).
const (
	Info Severity = iota
	Warn
	Critical
)

// Hit is one fired trigger.
type Hit struct {
	TriggerID string
	Severity  Severity
	// Label is the issue class for Warn/Critical hits ("" for Info).
	Label issue.Label
	// Message is the canned explanation (with interpolated values).
	Message string
	// Recommendation is the canned remediation text.
	Recommendation string
}

// Result is a full Drishti analysis.
type Result struct {
	Hits []Hit
}

// analysis carries the precomputed aggregates the triggers consult.
type analysis struct {
	log    *darshan.Log
	posix  *darshan.ModuleData
	mpiio  *darshan.ModuleData
	stdio  *darshan.ModuleData
	lustre *darshan.ModuleData

	reads, writes           float64
	smallReads, smallWrites float64
	seqReads, seqWrites     float64
	consecReads, consecW    float64
	notAligned, memAligned  float64
	opens, stats, fsyncs    float64
	metaTime, dataTime      float64
	sharedFiles             int
	bytesRead, bytesWritten float64
}

func newAnalysis(log *darshan.Log) *analysis {
	a := &analysis{log: log}
	a.posix = log.Modules[darshan.ModulePOSIX]
	a.mpiio = log.Modules[darshan.ModuleMPIIO]
	a.stdio = log.Modules[darshan.ModuleSTDIO]
	a.lustre = log.Modules[darshan.ModuleLustre]
	if a.posix == nil {
		a.posix = &darshan.ModuleData{Module: darshan.ModulePOSIX}
	}
	p := a.posix
	a.reads = float64(p.SumC("POSIX_READS"))
	a.writes = float64(p.SumC("POSIX_WRITES"))
	for _, b := range []string{"0_100", "100_1K", "1K_10K", "10K_100K", "100K_1M"} {
		a.smallReads += float64(p.SumC("POSIX_SIZE_READ_" + b))
		a.smallWrites += float64(p.SumC("POSIX_SIZE_WRITE_" + b))
	}
	a.seqReads = float64(p.SumC("POSIX_SEQ_READS"))
	a.seqWrites = float64(p.SumC("POSIX_SEQ_WRITES"))
	a.consecReads = float64(p.SumC("POSIX_CONSEC_READS"))
	a.consecW = float64(p.SumC("POSIX_CONSEC_WRITES"))
	a.notAligned = float64(p.SumC("POSIX_FILE_NOT_ALIGNED"))
	a.memAligned = float64(p.SumC("POSIX_MEM_NOT_ALIGNED"))
	a.opens = float64(p.SumC("POSIX_OPENS"))
	a.stats = float64(p.SumC("POSIX_STATS"))
	a.fsyncs = float64(p.SumC("POSIX_FSYNCS"))
	a.metaTime = p.SumF("POSIX_F_META_TIME")
	a.dataTime = p.SumF("POSIX_F_READ_TIME") + p.SumF("POSIX_F_WRITE_TIME")
	a.bytesRead = float64(p.SumC("POSIX_BYTES_READ"))
	a.bytesWritten = float64(p.SumC("POSIX_BYTES_WRITTEN"))
	for _, r := range p.Records {
		if r.Rank == darshan.SharedRank && r.C("POSIX_BYTES_READ")+r.C("POSIX_BYTES_WRITTEN") > 0 {
			a.sharedFiles++
		}
	}
	return a
}

// trigger is one heuristic check.
type trigger struct {
	id    string
	check func(a *analysis) *Hit
}

func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// Threshold constants, following Drishti's published trigger values.
const (
	thresholdSmall      = 0.10 // >10% of requests under 1 MB
	thresholdUnaligned  = 0.10
	thresholdMetaTime   = 0.30
	thresholdRandom     = 0.50 // sequential share below this => random
	thresholdImbalance  = 2.0
	thresholdManyFiles  = 128
	thresholdSmallBytes = 1 << 20
)

// triggers is the full 30-trigger table.
var triggers = []trigger{
	// --- Operation mix observations (informational) -----------------------
	{"T01-read-heavy", func(a *analysis) *Hit {
		if a.reads > 0 && a.reads > 4*max(a.writes, 1) {
			return &Hit{Severity: Info, Message: fmt.Sprintf("Application is read operation intensive (%.0f reads vs %.0f writes)", a.reads, a.writes)}
		}
		return nil
	}},
	{"T02-write-heavy", func(a *analysis) *Hit {
		if a.writes > 0 && a.writes > 4*max(a.reads, 1) {
			return &Hit{Severity: Info, Message: fmt.Sprintf("Application is write operation intensive (%.0f writes vs %.0f reads)", a.writes, a.reads)}
		}
		return nil
	}},
	{"T03-read-volume", func(a *analysis) *Hit {
		if a.bytesRead > 4*max(a.bytesWritten, 1) {
			return &Hit{Severity: Info, Message: fmt.Sprintf("Application is read size intensive (%.1f MB read, %.1f MB written)", a.bytesRead/1e6, a.bytesWritten/1e6)}
		}
		return nil
	}},
	{"T04-write-volume", func(a *analysis) *Hit {
		if a.bytesWritten > 4*max(a.bytesRead, 1) {
			return &Hit{Severity: Info, Message: fmt.Sprintf("Application is write size intensive (%.1f MB written, %.1f MB read)", a.bytesWritten/1e6, a.bytesRead/1e6)}
		}
		return nil
	}},

	// --- Small requests ----------------------------------------------------
	{"T05-small-reads", func(a *analysis) *Hit {
		if a.reads >= 16 && a.smallReads/a.reads > thresholdSmall {
			return &Hit{Severity: Warn, Label: issue.SmallReads,
				Message:        fmt.Sprintf("Application issues a high number (%.0f, i.e. %.0f%%) of small read requests (i.e., < 1MB) which represents a significant fraction of all read requests (POSIX_SIZE_READ_* counters)", a.smallReads, pct(a.smallReads, a.reads)),
				Recommendation: "Consider buffering read operations into larger and more contiguous ones"}
		}
		return nil
	}},
	{"T06-small-writes", func(a *analysis) *Hit {
		if a.writes >= 16 && a.smallWrites/a.writes > thresholdSmall {
			return &Hit{Severity: Warn, Label: issue.SmallWrites,
				Message:        fmt.Sprintf("Application issues a high number (%.0f, i.e. %.0f%%) of small write requests (i.e., < 1MB) which represents a significant fraction of all write requests (POSIX_SIZE_WRITE_* counters)", a.smallWrites, pct(a.smallWrites, a.writes)),
				Recommendation: "Consider buffering write operations into larger and more contiguous ones"}
		}
		return nil
	}},

	// --- Alignment ----------------------------------------------------------
	{"T07-file-unaligned", func(a *analysis) *Hit {
		ops := a.reads + a.writes
		if ops >= 16 && a.notAligned/ops > thresholdUnaligned {
			// Fixed heuristics cannot attribute the shared counter to a
			// direction, so both directions are flagged when both occur.
			return &Hit{Severity: Warn, Label: issue.MisalignedWrites,
				Message:        fmt.Sprintf("Application has a high number (%.0f%%) of I/O requests not aligned in file (POSIX_FILE_NOT_ALIGNED=%.0f)", pct(a.notAligned, ops), a.notAligned),
				Recommendation: "Consider aligning the requests to the file system block/stripe boundaries"}
		}
		return nil
	}},
	{"T08-file-unaligned-read", func(a *analysis) *Hit {
		ops := a.reads + a.writes
		if ops >= 16 && a.reads > 0 && a.notAligned/ops > thresholdUnaligned {
			return &Hit{Severity: Warn, Label: issue.MisalignedReads,
				Message:        fmt.Sprintf("Read requests share the unaligned access pattern (POSIX_FILE_NOT_ALIGNED=%.0f over %.0f operations)", a.notAligned, ops),
				Recommendation: "Consider aligning the requests to the file system block/stripe boundaries"}
		}
		return nil
	}},
	{"T09-mem-unaligned", func(a *analysis) *Hit {
		ops := a.reads + a.writes
		if ops >= 16 && a.memAligned/ops > 0.25 {
			return &Hit{Severity: Info,
				Message: fmt.Sprintf("Application has a high number (%.0f%%) of I/O requests not aligned in memory (POSIX_MEM_NOT_ALIGNED=%.0f)", pct(a.memAligned, ops), a.memAligned)}
		}
		return nil
	}},

	// --- Metadata -----------------------------------------------------------
	{"T10-meta-time", func(a *analysis) *Hit {
		if a.metaTime+a.dataTime > 0 && a.metaTime/(a.metaTime+a.dataTime) > thresholdMetaTime {
			return &Hit{Severity: Critical, Label: issue.HighMetadataLoad,
				Message:        fmt.Sprintf("Application spends %.0f%% of its I/O time in metadata operations (POSIX_F_META_TIME=%.2fs)", pct(a.metaTime, a.metaTime+a.dataTime), a.metaTime),
				Recommendation: "Consider aggregating small files into container formats to reduce metadata operations"}
		}
		return nil
	}},
	{"T11-many-opens", func(a *analysis) *Hit {
		n := float64(a.log.Job.NProcs)
		if n < 1 {
			n = 1
		}
		if a.opens/n > thresholdManyFiles && a.metaTime/(max(a.metaTime+a.dataTime, 1e-9)) > 0.10 {
			return &Hit{Severity: Warn, Label: issue.HighMetadataLoad,
				Message:        fmt.Sprintf("Application issues %.0f open operations per process (POSIX_OPENS=%.0f)", a.opens/n, a.opens),
				Recommendation: "Consider opening files once and reusing the handles"}
		}
		return nil
	}},
	{"T12-many-stats", func(a *analysis) *Hit {
		n := float64(a.log.Job.NProcs)
		if n < 1 {
			n = 1
		}
		if a.stats/n > thresholdManyFiles {
			return &Hit{Severity: Warn, Label: issue.HighMetadataLoad,
				Message:        fmt.Sprintf("Application issues %.0f stat operations per process (POSIX_STATS=%.0f)", a.stats/n, a.stats),
				Recommendation: "Consider caching file attributes instead of repeatedly calling stat"}
		}
		return nil
	}},
	{"T13-fsyncs", func(a *analysis) *Hit {
		if a.fsyncs > 64 {
			return &Hit{Severity: Info,
				Message: fmt.Sprintf("Application issues %.0f fsync operations (POSIX_FSYNCS)", a.fsyncs)}
		}
		return nil
	}},

	// --- Access order --------------------------------------------------------
	{"T14-random-reads", func(a *analysis) *Hit {
		if a.reads >= 16 && a.seqReads/a.reads < thresholdRandom {
			return &Hit{Severity: Warn, Label: issue.RandomReads,
				Message:        fmt.Sprintf("Application mostly uses non-sequential access patterns for reads (%.0f%% sequential, POSIX_SEQ_READS=%.0f)", pct(a.seqReads, a.reads), a.seqReads),
				Recommendation: "Consider reordering read requests or using collective I/O"}
		}
		return nil
	}},
	{"T15-random-writes", func(a *analysis) *Hit {
		if a.writes >= 16 && a.seqWrites/a.writes < thresholdRandom {
			return &Hit{Severity: Warn, Label: issue.RandomWrites,
				Message:        fmt.Sprintf("Application mostly uses non-sequential access patterns for writes (%.0f%% sequential, POSIX_SEQ_WRITES=%.0f)", pct(a.seqWrites, a.writes), a.seqWrites),
				Recommendation: "Consider reordering write requests or using collective I/O"}
		}
		return nil
	}},
	{"T16-seq-reads-ok", func(a *analysis) *Hit {
		if a.reads >= 16 && a.seqReads/a.reads >= 0.9 {
			return &Hit{Severity: Info, Message: fmt.Sprintf("Application has a high number (%.0f%%) of sequential read operations", pct(a.seqReads, a.reads))}
		}
		return nil
	}},
	{"T17-seq-writes-ok", func(a *analysis) *Hit {
		if a.writes >= 16 && a.seqWrites/a.writes >= 0.9 {
			return &Hit{Severity: Info, Message: fmt.Sprintf("Application has a high number (%.0f%%) of sequential write operations", pct(a.seqWrites, a.writes))}
		}
		return nil
	}},

	// --- Shared files and rank balance ---------------------------------------
	{"T18-shared-files", func(a *analysis) *Hit {
		if a.sharedFiles > 0 && a.log.Job.NProcs > 1 {
			return &Hit{Severity: Warn, Label: issue.SharedFileAccess,
				Message:        fmt.Sprintf("Application uses shared files (%d files accessed by all %d ranks)", a.sharedFiles, a.log.Job.NProcs),
				Recommendation: "Consider using collective I/O or tuning stripe settings for shared files"}
		}
		return nil
	}},
	{"T19-rank-time-imbalance", func(a *analysis) *Hit {
		n := float64(a.log.Job.NProcs)
		if n <= 1 || a.dataTime == 0 {
			return nil
		}
		// Skip when collective aggregation explains the skew.
		if a.mpiio != nil && a.mpiio.SumC("MPIIO_COLL_WRITES")+a.mpiio.SumC("MPIIO_COLL_READS") > 0 {
			return nil
		}
		var slow float64
		for _, r := range a.posix.Records {
			if t := r.F("POSIX_F_SLOWEST_RANK_TIME"); t > slow {
				slow = t
			}
		}
		if slow > thresholdImbalance*(a.dataTime/n) {
			return &Hit{Severity: Warn, Label: issue.RankImbalance,
				Message:        fmt.Sprintf("Application has rank load imbalance: the slowest rank spends %.1fx the mean I/O time (POSIX_F_SLOWEST_RANK_TIME=%.2fs)", slow/(a.dataTime/n), slow),
				Recommendation: "Consider rebalancing the I/O workload across ranks"}
		}
		return nil
	}},
	{"T20-rank-byte-imbalance", func(a *analysis) *Hit {
		if a.log.Job.NProcs <= 1 {
			return nil
		}
		for _, r := range a.posix.Records {
			fast := float64(r.C("POSIX_FASTEST_RANK_BYTES"))
			slow := float64(r.C("POSIX_SLOWEST_RANK_BYTES"))
			if fast > 0 && slow/fast > 4 {
				return &Hit{Severity: Warn, Label: issue.RankImbalance,
					Message:        fmt.Sprintf("Application has data imbalance: rank byte volumes differ by %.1fx on %s", slow/fast, r.Name),
					Recommendation: "Consider distributing data evenly across ranks"}
			}
		}
		return nil
	}},

	// --- MPI-IO usage ----------------------------------------------------------
	{"T21-no-coll-writes", func(a *analysis) *Hit {
		if a.mpiio == nil || a.log.Job.NProcs <= 1 || a.sharedFiles == 0 {
			return nil
		}
		iw := a.mpiio.SumC("MPIIO_INDEP_WRITES")
		cw := a.mpiio.SumC("MPIIO_COLL_WRITES")
		if cw == 0 && iw > 0 {
			return &Hit{Severity: Critical, Label: issue.NoCollectiveWrite,
				Message:        fmt.Sprintf("Application uses MPI-IO but writes are never collective (MPIIO_COLL_WRITES=0, MPIIO_INDEP_WRITES=%d)", iw),
				Recommendation: "Consider using collective write operations (e.g. MPI_File_write_all) and enabling collective buffering"}
		}
		return nil
	}},
	{"T22-no-coll-reads", func(a *analysis) *Hit {
		if a.mpiio == nil || a.log.Job.NProcs <= 1 || a.sharedFiles == 0 {
			return nil
		}
		ir := a.mpiio.SumC("MPIIO_INDEP_READS")
		cr := a.mpiio.SumC("MPIIO_COLL_READS")
		if cr == 0 && ir > 0 {
			return &Hit{Severity: Critical, Label: issue.NoCollectiveRead,
				Message:        fmt.Sprintf("Application uses MPI-IO but reads are never collective (MPIIO_COLL_READS=0, MPIIO_INDEP_READS=%d)", ir),
				Recommendation: "Consider using collective read operations (e.g. MPI_File_read_all)"}
		}
		return nil
	}},
	{"T23-mpi-bypass-write", func(a *analysis) *Hit {
		// MPI job writing substantial data exclusively through POSIX.
		if a.log.Job.Metadata["mpi"] != "1" || a.log.Job.NProcs <= 1 ||
			a.bytesWritten < 8<<20 {
			return nil
		}
		if a.mpiio == nil || a.mpiio.SumC("MPIIO_BYTES_WRITTEN") == 0 {
			return &Hit{Severity: Critical, Label: issue.NoCollectiveWrite,
				Message:        fmt.Sprintf("Application is an MPI job but writes %.1f MB directly through POSIX, bypassing MPI-IO optimizations entirely", a.bytesWritten/1e6),
				Recommendation: "Consider routing writes through MPI-IO collective operations"}
		}
		return nil
	}},
	{"T24-mpi-bypass-read", func(a *analysis) *Hit {
		if a.log.Job.Metadata["mpi"] != "1" || a.log.Job.NProcs <= 1 ||
			a.bytesRead < 8<<20 {
			return nil
		}
		if a.mpiio == nil || a.mpiio.SumC("MPIIO_BYTES_READ") == 0 {
			return &Hit{Severity: Critical, Label: issue.NoCollectiveRead,
				Message:        fmt.Sprintf("Application is an MPI job but reads %.1f MB directly through POSIX, bypassing MPI-IO optimizations entirely", a.bytesRead/1e6),
				Recommendation: "Consider routing reads through MPI-IO collective operations"}
		}
		return nil
	}},

	// --- Striping / OST usage ----------------------------------------------------
	{"T25-narrow-stripe", func(a *analysis) *Hit {
		if a.lustre == nil {
			return nil
		}
		for _, r := range a.lustre.Records {
			width := r.C("LUSTRE_STRIPE_WIDTH")
			ssize := r.C("LUSTRE_STRIPE_SIZE")
			extent := int64(0)
			for _, p := range a.posix.Records {
				if p.Name == r.Name {
					if e := p.C("POSIX_MAX_BYTE_WRITTEN") + 1; e > extent {
						extent = e
					}
					if e := p.C("POSIX_MAX_BYTE_READ") + 1; e > extent {
						extent = e
					}
				}
			}
			if width <= 1 && ssize > 0 && extent > 4*ssize {
				return &Hit{Severity: Warn, Label: issue.ServerImbalance,
					Message:        fmt.Sprintf("File %s spans %.1f MB but uses a stripe count of %d (LUSTRE_STRIPE_WIDTH), concentrating load on one OST", r.Name, float64(extent)/1e6, width),
					Recommendation: "Consider increasing the stripe count with lfs setstripe -c"}
			}
		}
		return nil
	}},
	{"T26-ost-coverage", func(a *analysis) *Hit {
		if a.lustre == nil {
			return nil
		}
		used := map[int64]bool{}
		var osts int64
		for _, r := range a.lustre.Records {
			osts = r.C("LUSTRE_OSTS")
			for i := 0; i < int(r.C("LUSTRE_STRIPE_WIDTH")) && i < darshan.MaxLustreOSTs; i++ {
				used[r.C(fmt.Sprintf("LUSTRE_OST_ID_%d", i))] = true
			}
		}
		if osts >= 8 && len(used) > 0 && float64(len(used))/float64(osts) < 0.25 &&
			a.bytesRead+a.bytesWritten > 64<<20 {
			return &Hit{Severity: Warn, Label: issue.ServerImbalance,
				Message:        fmt.Sprintf("Application uses only %d of %d available OSTs (LUSTRE_OST_ID_*), underutilizing the storage system", len(used), osts),
				Recommendation: "Consider spreading files across more OSTs via wider striping"}
		}
		return nil
	}},
	{"T27-stripe-info", func(a *analysis) *Hit {
		if a.lustre == nil || len(a.lustre.Records) == 0 {
			return nil
		}
		r := a.lustre.Records[0]
		return &Hit{Severity: Info,
			Message: fmt.Sprintf("Lustre striping in effect: LUSTRE_STRIPE_WIDTH=%d, LUSTRE_STRIPE_SIZE=%d", r.C("LUSTRE_STRIPE_WIDTH"), r.C("LUSTRE_STRIPE_SIZE"))}
	}},

	// --- Misc -----------------------------------------------------------------
	{"T28-rw-switches", func(a *analysis) *Hit {
		sw := float64(a.posix.SumC("POSIX_RW_SWITCHES"))
		if ops := a.reads + a.writes; ops >= 16 && sw/ops > 0.2 {
			return &Hit{Severity: Info,
				Message: fmt.Sprintf("Application alternates between reads and writes frequently (POSIX_RW_SWITCHES=%.0f)", sw)}
		}
		return nil
	}},
	{"T29-stdio-volume", func(a *analysis) *Hit {
		if a.stdio == nil {
			return nil
		}
		sb := float64(a.stdio.SumC("STDIO_BYTES_READ") + a.stdio.SumC("STDIO_BYTES_WRITTEN"))
		total := sb + a.bytesRead + a.bytesWritten
		if total > 0 && sb/total > 0.3 && sb > 8<<20 {
			return &Hit{Severity: Info,
				Message: fmt.Sprintf("A large share (%.0f%%) of I/O volume flows through STDIO (STDIO_BYTES_*)", 100*sb/total)}
		}
		return nil
	}},
	{"T30-tiny-job", func(a *analysis) *Hit {
		if a.bytesRead+a.bytesWritten < thresholdSmallBytes && a.reads+a.writes > 0 {
			return &Hit{Severity: Info,
				Message: fmt.Sprintf("Application moves very little data overall (%.1f KB)", (a.bytesRead+a.bytesWritten)/1024)}
		}
		return nil
	}},
}

// NumTriggers is the size of the trigger table (the paper credits Drishti
// with 30 triggers).
var NumTriggers = len(triggers)

// Analyze runs every trigger over the log.
func Analyze(log *darshan.Log) *Result {
	a := newAnalysis(log)
	res := &Result{}
	for i, t := range triggers {
		if hit := t.check(a); hit != nil {
			hit.TriggerID = t.id
			_ = i
			res.Hits = append(res.Hits, *hit)
		}
	}
	return res
}

// Labels returns the issue labels claimed by Warn/Critical hits.
func (r *Result) Labels() issue.Set {
	s := make(issue.Set)
	for _, h := range r.Hits {
		if h.Severity >= Warn && h.Label != "" {
			s[h.Label] = true
		}
	}
	return s
}

// Format renders the analysis in the shared report layout so the judge and
// merge tooling can parse it. Messages remain Drishti's canned text.
func (r *Result) Format() string {
	rep := &llm.Report{Preamble: "Drishti heuristic trigger analysis."}
	seen := make(map[issue.Label]bool)
	for _, h := range r.Hits {
		if h.Severity >= Warn && h.Label != "" {
			if seen[h.Label] {
				continue
			}
			seen[h.Label] = true
			rep.Findings = append(rep.Findings, llm.Finding{
				Label:          h.Label,
				Evidence:       fmt.Sprintf("[%s] %s", h.TriggerID, h.Message),
				Recommendation: h.Recommendation,
			})
		}
	}
	for _, h := range r.Hits {
		if h.Severity == Info {
			rep.Notes = append(rep.Notes, fmt.Sprintf("[%s] %s", h.TriggerID, h.Message))
		}
	}
	return rep.Format()
}

// Summary lists fired triggers one per line (the classic CLI view).
func (r *Result) Summary() string {
	var b strings.Builder
	for _, h := range r.Hits {
		sev := map[Severity]string{Info: "INFO", Warn: "WARN", Critical: "CRIT"}[h.Severity]
		fmt.Fprintf(&b, "%-4s %-24s %s\n", sev, h.TriggerID, h.Message)
	}
	return b.String()
}
