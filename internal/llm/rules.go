package llm

import (
	"fmt"
	"sort"
	"strings"

	"ioagent/internal/issue"
)

// Derived-metric key vocabulary. IOAgent's summary extraction functions
// emit these keys in JSON fragments; the rule base consumes them directly
// when present and falls back to deriving the same quantities from raw
// Darshan counters (the path taken for raw-trace prompts such as ION's).
const (
	KeyNProcs    = "nprocs"
	KeyRuntime   = "runtime_s"
	KeyUsesMPI   = "uses_mpi"
	KeyPosixShr  = "posix_byte_share"
	KeyMpiioShr  = "mpiio_byte_share"
	KeyStdioShr  = "stdio_byte_share"
	KeyBytesRead = "bytes_read"
	KeyBytesWrit = "bytes_written"
	KeyPosixRB   = "posix_bytes_read"
	KeyPosixWB   = "posix_bytes_written"

	KeySmallWriteFrac = "small_write_fraction"
	KeySmallReadFrac  = "small_read_fraction"
	KeyWrites         = "write_ops"
	KeyReads          = "read_ops"
	KeySeqWriteFrac   = "seq_write_fraction"
	KeySeqReadFrac    = "seq_read_fraction"
	KeyUnalignedWrite = "misaligned_write_fraction"
	KeyUnalignedRead  = "misaligned_read_fraction"
	KeyMetaTimeFrac   = "meta_time_fraction"
	KeyMetaOpsPerProc = "meta_ops_per_proc"
	KeySharedFiles    = "shared_data_files"
	KeyCollWrites     = "collective_writes"
	KeyCollReads      = "collective_reads"
	KeyIndepWrites    = "independent_writes"
	KeyIndepReads     = "independent_reads"
	KeyStdioReadByt   = "stdio_bytes_read"
	KeyStdioWriteByt  = "stdio_bytes_written"
	KeyRereadFactor   = "max_reread_factor"
	KeyRankSlowRatio  = "rank_slowest_over_mean_time"
	KeyRankByteRatio  = "rank_slowest_over_fastest_bytes"
	KeyWideFiles      = "large_files_on_single_ost"
	KeyOSTCoverage    = "ost_coverage_fraction"
	KeyStripeWidth    = "stripe_width"
	KeyStripeSize     = "stripe_size"
	KeyNumOSTs        = "available_osts"
	KeyLargestFile    = "largest_file_bytes"
	KeyAccessSize     = "dominant_access_size"
)

// Rule thresholds. These encode the community heuristics the knowledge
// corpus documents (and roughly match Drishti's trigger constants).
const (
	smallFracThreshold     = 0.10 // >10% of ops under 1 MiB
	seqFracThreshold       = 0.60 // <60% sequential => random pattern
	unalignedFracThreshold = 0.10
	metaFracThreshold      = 0.25
	metaOpsPerProcMin      = 64
	rereadFactorThreshold  = 2.0
	rankRatioThreshold     = 2.0
	minOpsToJudge          = 16 // ignore patterns with almost no operations
	// minCollectiveBytes is the data-volume floor below which missing
	// collective I/O is not worth flagging (tiny config-style traffic).
	minCollectiveBytes = 8 << 20
)

// View answers the diagnostic questions the rule base asks, preferring
// derived metrics from summary fragments and falling back to raw counters.
type View struct{ f *FactSet }

// NewView wraps a FactSet.
func NewView(f *FactSet) *View { return &View{f: f} }

func (v *View) derivedOr(key string, fallback func() (float64, bool)) (float64, bool) {
	if x, ok := v.f.D(key); ok {
		return x, true
	}
	return fallback()
}

func (v *View) writes() (float64, bool) {
	return v.derivedOr(KeyWrites, func() (float64, bool) {
		if !v.f.Has("POSIX_WRITES") && !v.f.Has("STDIO_WRITES") {
			return 0, false
		}
		return v.f.C("POSIX_WRITES") + v.f.C("STDIO_WRITES"), true
	})
}

func (v *View) reads() (float64, bool) {
	return v.derivedOr(KeyReads, func() (float64, bool) {
		if !v.f.Has("POSIX_READS") && !v.f.Has("STDIO_READS") {
			return 0, false
		}
		return v.f.C("POSIX_READS") + v.f.C("STDIO_READS"), true
	})
}

// smallBuckets are the histogram suffixes below 1 MiB.
var smallBuckets = []string{"0_100", "100_1K", "1K_10K", "10K_100K", "100K_1M"}

func (v *View) smallFraction(op string, derivedKey string, opsKey string) (float64, bool) {
	return v.derivedOr(derivedKey, func() (float64, bool) {
		total := v.f.C("POSIX_" + opsKey)
		if total == 0 {
			return 0, false
		}
		var small float64
		present := false
		for _, b := range smallBuckets {
			k := "POSIX_SIZE_" + op + "_" + b
			if v.f.Has(k) {
				present = true
				small += v.f.C(k)
			}
		}
		if !present {
			return 0, false
		}
		return small / total, true
	})
}

// SmallWriteFraction is the share of write operations under 1 MiB.
func (v *View) SmallWriteFraction() (float64, bool) {
	return v.smallFraction("WRITE", KeySmallWriteFrac, "WRITES")
}

// SmallReadFraction is the share of read operations under 1 MiB.
func (v *View) SmallReadFraction() (float64, bool) {
	return v.smallFraction("READ", KeySmallReadFrac, "READS")
}

// SeqWriteFraction is the share of writes at non-decreasing offsets.
func (v *View) SeqWriteFraction() (float64, bool) {
	return v.derivedOr(KeySeqWriteFrac, func() (float64, bool) {
		w := v.f.C("POSIX_WRITES")
		if w == 0 || !v.f.Has("POSIX_SEQ_WRITES") {
			return 0, false
		}
		return v.f.C("POSIX_SEQ_WRITES") / w, true
	})
}

// SeqReadFraction is the share of reads at non-decreasing offsets.
func (v *View) SeqReadFraction() (float64, bool) {
	return v.derivedOr(KeySeqReadFrac, func() (float64, bool) {
		r := v.f.C("POSIX_READS")
		if r == 0 || !v.f.Has("POSIX_SEQ_READS") {
			return 0, false
		}
		return v.f.C("POSIX_SEQ_READS") / r, true
	})
}

// misalignedFractions attributes POSIX_FILE_NOT_ALIGNED to reads and writes
// proportionally to each file's operation mix (Darshan does not split the
// counter by direction).
func (v *View) misalignedFractions() (readFrac, writeFrac float64, ok bool) {
	if !v.f.Has("POSIX_FILE_NOT_ALIGNED") {
		return 0, 0, false
	}
	var readMis, writeMis, reads, writes float64
	for _, name := range v.f.sortedFiles() {
		fc := v.f.Files[name]
		na := fc["POSIX_FILE_NOT_ALIGNED"]
		r, w := fc["POSIX_READS"], fc["POSIX_WRITES"]
		reads += r
		writes += w
		if r+w == 0 {
			continue
		}
		readMis += na * r / (r + w)
		writeMis += na * w / (r + w)
	}
	if reads > 0 {
		readFrac = readMis / reads
	}
	if writes > 0 {
		writeFrac = writeMis / writes
	}
	return readFrac, writeFrac, true
}

// MisalignedWriteFraction is the estimated share of writes not aligned to
// the file system boundary.
func (v *View) MisalignedWriteFraction() (float64, bool) {
	return v.derivedOr(KeyUnalignedWrite, func() (float64, bool) {
		_, w, ok := v.misalignedFractions()
		return w, ok
	})
}

// MisalignedReadFraction is the estimated share of reads not aligned.
func (v *View) MisalignedReadFraction() (float64, bool) {
	return v.derivedOr(KeyUnalignedRead, func() (float64, bool) {
		r, _, ok := v.misalignedFractions()
		return r, ok
	})
}

// MetaTimeFraction is metadata time over total I/O time.
func (v *View) MetaTimeFraction() (float64, bool) {
	return v.derivedOr(KeyMetaTimeFrac, func() (float64, bool) {
		meta := v.f.C("POSIX_F_META_TIME") + v.f.C("STDIO_F_META_TIME") + v.f.C("MPIIO_F_META_TIME")
		data := v.f.C("POSIX_F_READ_TIME") + v.f.C("POSIX_F_WRITE_TIME") +
			v.f.C("STDIO_F_READ_TIME") + v.f.C("STDIO_F_WRITE_TIME")
		if meta+data == 0 {
			return 0, false
		}
		return meta / (meta + data), true
	})
}

// MetaOpsPerProc is the count of metadata operations per process.
func (v *View) MetaOpsPerProc() (float64, bool) {
	return v.derivedOr(KeyMetaOpsPerProc, func() (float64, bool) {
		ops := v.f.C("POSIX_OPENS") + v.f.C("POSIX_STATS") + v.f.C("STDIO_OPENS")
		if ops == 0 {
			return 0, false
		}
		n := v.f.NProcs
		if n <= 0 {
			n = 1
		}
		return ops / float64(n), true
	})
}

// SharedDataFiles counts shared (rank -1) records that move data.
func (v *View) SharedDataFiles() (float64, bool) {
	return v.derivedOr(KeySharedFiles, func() (float64, bool) {
		if len(v.f.Files) == 0 {
			return 0, false
		}
		var n float64
		for file := range v.f.SharedFiles {
			fc := v.f.Files[file]
			if fc["POSIX_BYTES_READ"]+fc["POSIX_BYTES_WRITTEN"] > 0 {
				n++
			}
		}
		return n, true
	})
}

// Collectives reports MPI-IO collective/independent op counts.
func (v *View) Collectives() (collR, collW, indepR, indepW float64, ok bool) {
	cr, ok1 := v.f.D(KeyCollReads)
	cw, ok2 := v.f.D(KeyCollWrites)
	ir, ok3 := v.f.D(KeyIndepReads)
	iw, ok4 := v.f.D(KeyIndepWrites)
	if ok1 || ok2 || ok3 || ok4 {
		return cr, cw, ir, iw, true
	}
	if !v.f.Has("MPIIO_COLL_WRITES") && !v.f.Has("MPIIO_INDEP_WRITES") &&
		!v.f.Has("MPIIO_COLL_READS") && !v.f.Has("MPIIO_INDEP_READS") {
		return 0, 0, 0, 0, false
	}
	return v.f.C("MPIIO_COLL_READS"), v.f.C("MPIIO_COLL_WRITES"),
		v.f.C("MPIIO_INDEP_READS"), v.f.C("MPIIO_INDEP_WRITES"), true
}

// StdioBytes reports bytes moved through the STDIO layer.
func (v *View) StdioBytes() (read, written float64, ok bool) {
	r, ok1 := v.f.D(KeyStdioReadByt)
	w, ok2 := v.f.D(KeyStdioWriteByt)
	if ok1 || ok2 {
		return r, w, true
	}
	if !v.f.Has("STDIO_BYTES_READ") && !v.f.Has("STDIO_BYTES_WRITTEN") {
		return 0, 0, false
	}
	return v.f.C("STDIO_BYTES_READ"), v.f.C("STDIO_BYTES_WRITTEN"), true
}

// TotalBytes reports total bytes moved (all layers).
func (v *View) TotalBytes() (read, written float64, ok bool) {
	r, ok1 := v.f.D(KeyBytesRead)
	w, ok2 := v.f.D(KeyBytesWrit)
	if ok1 && ok2 {
		return r, w, true
	}
	if !v.f.Has("POSIX_BYTES_READ") && !v.f.Has("POSIX_BYTES_WRITTEN") &&
		!v.f.Has("STDIO_BYTES_READ") && !v.f.Has("STDIO_BYTES_WRITTEN") {
		return 0, 0, false
	}
	return v.f.C("POSIX_BYTES_READ") + v.f.C("STDIO_BYTES_READ"),
		v.f.C("POSIX_BYTES_WRITTEN") + v.f.C("STDIO_BYTES_WRITTEN"), true
}

// RereadFactor is the largest ratio of bytes read to file extent across
// files (values over ~1 indicate repeated reads of the same data).
func (v *View) RereadFactor() (float64, bool) {
	return v.derivedOr(KeyRereadFactor, func() (float64, bool) {
		var best float64
		found := false
		for _, fc := range v.f.Files {
			br := fc["POSIX_BYTES_READ"]
			extent := fc["POSIX_MAX_BYTE_READ"] + 1
			if br > 0 && extent > 1 {
				found = true
				if f := br / extent; f > best {
					best = f
				}
			}
		}
		return best, found
	})
}

// RankImbalance reports the slowest-rank-over-mean time ratio and, when
// MPI-IO per-rank byte counts exist, the byte skew ratio. Per-rank records
// (file-per-process jobs) and shared-record reductions both feed the time
// ratio.
func (v *View) RankImbalance() (timeRatio float64, byteRatio float64, ok bool) {
	tr, ok1 := v.f.D(KeyRankSlowRatio)
	br, ok2 := v.f.D(KeyRankByteRatio)
	if ok1 || ok2 {
		return tr, br, true
	}
	n := float64(v.f.NProcs)
	if n <= 1 {
		return 0, 0, false
	}
	fastB := v.f.C("MPIIO_FASTEST_RANK_BYTES")
	slowB := v.f.C("MPIIO_SLOWEST_RANK_BYTES")
	if fastB > 0 {
		byteRatio = slowB / fastB
	}
	// File-per-process path: per-rank time accumulation (sorted ranks so
	// float summation order is stable).
	if len(v.f.RankTimes) >= 2 {
		ranks := make([]int, 0, len(v.f.RankTimes))
		for r := range v.f.RankTimes {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		var sum, slowest float64
		for _, r := range ranks {
			t := v.f.RankTimes[r]
			sum += t
			if t > slowest {
				slowest = t
			}
		}
		mean := sum / float64(len(v.f.RankTimes))
		if mean > 0 {
			return slowest / mean, byteRatio, true
		}
	}
	// Shared-record path: reduction counters.
	slow := v.f.C("POSIX_F_SLOWEST_RANK_TIME")
	total := v.f.C("POSIX_F_READ_TIME") + v.f.C("POSIX_F_WRITE_TIME")
	if slow == 0 || total == 0 {
		return 0, 0, false
	}
	mean := total / n
	if mean <= 0 {
		return 0, 0, false
	}
	return slow / mean, byteRatio, true
}

// StripePicture summarizes Lustre striping: the number of large files
// confined to a single OST, the fraction of available OSTs covered, and the
// dominant stripe settings.
func (v *View) StripePicture() (largeNarrow float64, coverage float64, width, size, osts float64, ok bool) {
	ln, ok1 := v.f.D(KeyWideFiles)
	cov, ok2 := v.f.D(KeyOSTCoverage)
	w, _ := v.f.D(KeyStripeWidth)
	sz, _ := v.f.D(KeyStripeSize)
	no, _ := v.f.D(KeyNumOSTs)
	if ok1 || ok2 {
		return ln, cov, w, sz, no, true
	}
	if !v.f.Has("LUSTRE_STRIPE_WIDTH") {
		return 0, 0, 0, 0, 0, false
	}
	// Raw-counter fallback: inspect per-file Lustre records.
	usedOSTs := make(map[float64]bool)
	totalOSTs := v.f.Counters["LUSTRE_OSTS"]
	var files float64
	for _, name := range v.f.sortedFiles() {
		fc := v.f.Files[name]
		sw, has := fc["LUSTRE_STRIPE_WIDTH"]
		if !has {
			continue
		}
		files++
		width = sw
		size = fc["LUSTRE_STRIPE_SIZE"]
		if o, hasO := fc["LUSTRE_OSTS"]; hasO {
			totalOSTs = o
		}
		extent := max(fc["POSIX_MAX_BYTE_WRITTEN"], fc["POSIX_MAX_BYTE_READ"]) + 1
		if sw <= 1 && extent > 4*fc["LUSTRE_STRIPE_SIZE"] && fc["LUSTRE_STRIPE_SIZE"] > 0 {
			largeNarrow++
		}
		for i := 0; i < int(sw) && i < 32; i++ {
			usedOSTs[fc[fmt.Sprintf("LUSTRE_OST_ID_%d", i)]] = true
		}
	}
	if files == 0 {
		return 0, 0, 0, 0, 0, false
	}
	if totalOSTs > 0 {
		coverage = float64(len(usedOSTs)) / totalOSTs
	}
	return largeNarrow, coverage, width, size, totalOSTs, true
}

// ruleHit is one fired diagnostic rule before grounding/citation.
type ruleHit struct {
	label    issue.Label
	evidence string
}

// runRules applies the full diagnostic rule base to the view and returns
// the fired rules in deterministic order. This is the "ideal expert"
// output; SimLLM degrades it by capability, attention, and grounding.
func runRules(v *View) []ruleHit {
	var hits []ruleHit
	add := func(label issue.Label, evidence string) {
		hits = append(hits, ruleHit{label, evidence})
	}
	nprocs := v.f.NProcs
	if nprocs <= 0 {
		if n, ok := v.f.D(KeyNProcs); ok {
			nprocs = int(n)
		}
	}

	// Small requests.
	if frac, ok := v.SmallWriteFraction(); ok && frac > smallFracThreshold {
		if w, okW := v.writes(); !okW || w >= minOpsToJudge {
			add(issue.SmallWrites, fmt.Sprintf(
				"%.0f%% of write requests transfer less than 1 MiB%s; small writes pay per-operation latency and defeat write-behind",
				frac*100, opCount(v.writes)))
		}
	}
	if frac, ok := v.SmallReadFraction(); ok && frac > smallFracThreshold {
		if r, okR := v.reads(); !okR || r >= minOpsToJudge {
			add(issue.SmallReads, fmt.Sprintf(
				"%.0f%% of read requests transfer less than 1 MiB%s; batching reads into larger transfers would recover bandwidth",
				frac*100, opCount(v.reads)))
		}
	}

	// Random access.
	if seq, ok := v.SeqWriteFraction(); ok && seq < seqFracThreshold {
		if w, okW := v.writes(); !okW || w >= minOpsToJudge {
			add(issue.RandomWrites, fmt.Sprintf(
				"only %.0f%% of writes land at non-decreasing offsets, indicating a random write pattern that defeats write-behind and fragments extents", seq*100))
		}
	}
	if seq, ok := v.SeqReadFraction(); ok && seq < seqFracThreshold {
		if r, okR := v.reads(); !okR || r >= minOpsToJudge {
			add(issue.RandomReads, fmt.Sprintf(
				"only %.0f%% of reads land at non-decreasing offsets, indicating a random read pattern that defeats prefetching", seq*100))
		}
	}

	// Misalignment.
	if frac, ok := v.MisalignedWriteFraction(); ok && frac > unalignedFracThreshold {
		add(issue.MisalignedWrites, fmt.Sprintf(
			"%.0f%% of write requests start at offsets not aligned with the file system boundary, forcing read-modify-write cycles", frac*100))
	}
	if frac, ok := v.MisalignedReadFraction(); ok && frac > unalignedFracThreshold {
		add(issue.MisalignedReads, fmt.Sprintf(
			"%.0f%% of read requests start at offsets not aligned with the file system boundary", frac*100))
	}

	// Metadata.
	metaFrac, okFrac := v.MetaTimeFraction()
	metaOps, okOps := v.MetaOpsPerProc()
	if okFrac && metaFrac > metaFracThreshold {
		ev := fmt.Sprintf("%.0f%% of I/O time is spent in metadata operations", metaFrac*100)
		if okOps {
			ev += fmt.Sprintf(" (%.0f open/stat operations per process)", metaOps)
		}
		add(issue.HighMetadataLoad, ev)
	} else if okOps && okFrac && metaOps > metaOpsPerProcMin && metaFrac > 0.10 {
		add(issue.HighMetadataLoad, fmt.Sprintf(
			"%.0f metadata operations per process with %.0f%% of I/O time in metadata indicates metadata pressure", metaOps, metaFrac*100))
	}

	// Shared file access.
	if shared, ok := v.SharedDataFiles(); ok && shared > 0 && nprocs > 1 {
		add(issue.SharedFileAccess, fmt.Sprintf(
			"%.0f file(s) are accessed concurrently by all %d ranks; shared-file access requires collective coordination or careful striping to avoid lock contention",
			shared, nprocs))
	}

	// Repetitive reads.
	if factor, ok := v.RereadFactor(); ok && factor > rereadFactorThreshold {
		add(issue.RepetitiveReads, fmt.Sprintf(
			"the application read %.1fx more bytes than the file extent, re-reading the same data repeatedly", factor))
	}

	// Rank imbalance.
	if tr, br, ok := v.RankImbalance(); ok {
		// Byte skew near 1 with high time skew under collective I/O is
		// expected (aggregators); require byte skew or no collectives.
		_, cw, _, _, haveColl := v.Collectives()
		aggregated := haveColl && cw > 0
		if br > rankRatioThreshold || (!aggregated && tr > rankRatioThreshold) {
			ev := fmt.Sprintf("the slowest rank spends %.1fx the mean rank I/O time", tr)
			if br > 0 {
				ev += fmt.Sprintf(" and moves %.1fx the bytes of the fastest rank", br)
			}
			add(issue.RankImbalance, ev)
		}
	}

	// MPI usage and collectives.
	mpiioPresent := false
	if _, _, _, _, ok := v.Collectives(); ok {
		mpiioPresent = true
	}
	usesMPI := v.f.UsesMPI || mpiioPresent
	if nprocs > 1 && !usesMPI {
		add(issue.MultiProcessNoMPI, fmt.Sprintf(
			"%d processes perform I/O without MPI; the storage stack sees uncoordinated streams it cannot aggregate or schedule jointly", nprocs))
	}
	if usesMPI && nprocs > 1 {
		shared, _ := v.SharedDataFiles()
		cr, cw, ir, iw, haveColl := v.Collectives()
		posixRB, posixWB := v.PosixBytes()
		// Missing collectives matter when ranks write shared files
		// independently, or when an MPI job bypasses the MPI-IO layer
		// entirely — and only for substantial volumes.
		if cw == 0 && posixWB >= minCollectiveBytes && (shared > 0 || !haveColl) {
			ev := fmt.Sprintf("%.0f MiB are written without collective I/O", posixWB/(1<<20))
			if iw > 0 {
				ev += fmt.Sprintf(" (%.0f independent MPI-IO writes, 0 collective)", iw)
			} else {
				ev += " (writes bypass MPI-IO entirely and go straight to POSIX)"
			}
			add(issue.NoCollectiveWrite, ev)
		}
		if cr == 0 && posixRB >= minCollectiveBytes && (shared > 0 || !haveColl) {
			ev := fmt.Sprintf("%.0f MiB are read without collective I/O", posixRB/(1<<20))
			if ir > 0 {
				ev += fmt.Sprintf(" (%.0f independent MPI-IO reads, 0 collective)", ir)
			} else {
				ev += " (reads bypass MPI-IO entirely and go straight to POSIX)"
			}
			add(issue.NoCollectiveRead, ev)
		}
	}

	// Low-level library usage.
	if sr, sw, ok := v.StdioBytes(); ok {
		tr, tw, okT := v.TotalBytes()
		if okT {
			if tw > 0 && sw/tw > 0.10 && sw > 1<<20 {
				add(issue.LowLevelLibWrite, fmt.Sprintf(
					"%.0f%% of written bytes (%.1f MiB) flow through the buffered STDIO layer, which serializes and copies every transfer", 100*sw/tw, sw/(1<<20)))
			}
			if tr > 0 && sr/tr > 0.10 && sr > 1<<20 {
				add(issue.LowLevelLibRead, fmt.Sprintf(
					"%.0f%% of read bytes (%.1f MiB) flow through the buffered STDIO layer", 100*sr/tr, sr/(1<<20)))
			}
		}
	}

	// Server / OST balance.
	if largeNarrow, coverage, width, size, osts, ok := v.StripePicture(); ok {
		tb, wb, okBytes := v.TotalBytes()
		bigVolume := okBytes && tb+wb >= 64<<20
		accessHint := ""
		if a, okA := v.f.D(KeyAccessSize); okA && a >= 1<<20 {
			accessHint = fmt.Sprintf("; the dominant access size is %.0f MiB per request", a/(1<<20))
		}
		switch {
		case largeNarrow > 0:
			add(issue.ServerImbalance, fmt.Sprintf(
				"%.0f large file(s) use a stripe count of %.0f with a %.0f KiB stripe size, confining their traffic to a single storage target while %.0f OSTs are available%s",
				largeNarrow, max(width, 1), size/1024, osts, accessHint))
		case coverage > 0 && coverage < 0.25 && osts >= 8 && bigVolume:
			add(issue.ServerImbalance, fmt.Sprintf(
				"the job's files cover only %.0f%% of the %.0f available OSTs, leaving most storage servers idle", coverage*100, osts))
		}
	}

	sort.SliceStable(hits, func(i, j int) bool {
		return labelOrder(hits[i].label) < labelOrder(hits[j].label)
	})
	return hits
}

// PosixBytes reports bytes moved through the POSIX layer (the traffic that
// could have used collective MPI-IO instead).
func (v *View) PosixBytes() (read, written float64) {
	if r, ok := v.f.D(KeyPosixRB); ok {
		read = r
	} else {
		read = v.f.C("POSIX_BYTES_READ")
	}
	if w, ok := v.f.D(KeyPosixWB); ok {
		written = w
	} else {
		written = v.f.C("POSIX_BYTES_WRITTEN")
	}
	return read, written
}

func opCount(get func() (float64, bool)) string {
	if n, ok := get(); ok && n > 0 {
		return fmt.Sprintf(" (of %.0f total)", n)
	}
	return ""
}

func labelOrder(l issue.Label) int {
	for i, x := range issue.All {
		if x == l {
			return i
		}
	}
	return len(issue.All)
}

// matchSources selects retrieved sources relevant to a label by topic
// keyword overlap (at least two distinct topic keywords must appear).
func matchSources(label issue.Label, sources []Source) []string {
	topics := issue.Topics[label]
	var keys []string
	for _, s := range sources {
		text := strings.ToLower(s.Text)
		n := 0
		for _, t := range topics {
			if strings.Contains(text, t) {
				n++
			}
		}
		if n >= 2 {
			keys = append(keys, s.Key)
		}
		if len(keys) == 3 {
			break
		}
	}
	return keys
}

// ExpertLabels runs the full diagnostic rule base over a complete trace
// text with no truncation, attention loss, or capability gating — the
// "ideal expert" reading. TraceBench uses it to verify that ground-truth
// labels are exactly what a perfect analyst would derive from each trace.
func ExpertLabels(traceText string) issue.Set {
	hits := runRules(NewView(ExtractFacts(traceText)))
	out := make(issue.Set)
	for _, h := range hits {
		out[h.label] = true
	}
	return out
}
