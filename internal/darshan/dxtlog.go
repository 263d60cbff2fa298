package darshan

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"ioagent/internal/dxt"
)

// DXTFileAlignment is the file-alignment boundary assumed when deriving
// POSIX alignment counters from a DXT event stream. DXT events carry no
// alignment metadata, so the derivation checks offsets against the page
// size — the same default the upstream Darshan runtime reports for
// POSIX_FILE_ALIGNMENT on most POSIX filesystems.
const DXTFileAlignment = 4096

// FromDXT derives a counter Log from a per-operation DXT event stream and
// attaches the stream to the result (Log.DXT). The derivation is a pure,
// deterministic function of the canonical event stream — two renderings of
// the same events (the darshan-dxt-parser text form, the binary container)
// derive byte-identical logs, which is what makes ContentDigest
// rendering-canonical for the DXT modality.
//
// The derived counters mirror what the Darshan runtime itself aggregates
// from the operations it observes: op counts, byte volumes, access-size
// histograms, sequential/consecutive shares, alignment, per-direction I/O
// time, and fastest/slowest-rank aggregates on shared files. What DXT does
// not trace cannot be derived: there are no metadata operations (stats,
// seeks, syncs), so POSIX_F_META_TIME stays zero and an open is inferred
// only as "each rank that touched a file opened it once". A metadata storm
// is therefore invisible in the DXT modality — the modality contract
// ARCHITECTURE.md documents, and the reason expected scenario labels
// differ per modality.
func FromDXT(t *dxt.Trace) *Log {
	ct := t.Canonical()
	l := NewLog()
	l.Job.NProcs = ct.NProcs
	l.DXT = ct
	evs := ct.Events

	// One pass over the events: the job header, and which (module class,
	// file) group each event belongs to.
	type fileKey struct {
		mod  ModuleID
		file string
	}
	type group struct {
		fileKey
		n, end int // event count; end of the group's run in byGroup
	}
	var groups []group
	index := map[fileKey]int{}
	groupOf := make([]int, len(evs)) // -1: module not derived
	last, derived, nan := -1, 0, false
	for i := range evs {
		e := &evs[i]
		if e.Rank+1 > l.Job.NProcs {
			l.Job.NProcs = e.Rank + 1
		}
		if e.End > l.Job.RunTime {
			l.Job.RunTime = e.End
		}
		nan = nan || e.Start != e.Start
		mod, ok := moduleForDXT(e.Module)
		if !ok {
			groupOf[i] = -1 // unknown module spelling: tolerated, not derived
			continue
		}
		if last < 0 || groups[last].mod != mod || groups[last].file != e.File {
			k := fileKey{mod, e.File}
			if last, ok = index[k]; !ok {
				last = len(groups)
				index[k] = last
				groups = append(groups, group{fileKey: k})
			}
		}
		groupOf[i] = last
		groups[last].n++
		derived++
	}

	// Records come out in (module, file) order. byGroup lists the event
	// positions group by group in that order, each group's in canonical
	// order: a counting sort, so no event is copied.
	order := make([]int, len(groups))
	for g := range order {
		order[g] = g
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(groups[a].mod, groups[b].mod); c != 0 {
			return c
		}
		return strings.Compare(groups[a].file, groups[b].file)
	})
	end := 0
	for _, g := range order {
		end += groups[g].n
		groups[g].end = end
	}
	byGroup := make([]int, derived)
	for i := len(evs) - 1; i >= 0; i-- {
		if g := groupOf[i]; g >= 0 {
			groups[g].end--
			byGroup[groups[g].end] = i
		}
	}

	for _, g := range order {
		gr := &groups[g]
		if gr.mod == ModuleMPIIO {
			l.Job.Metadata["mpi"] = "1"
		}
		md := l.Module(gr.mod)
		md.Records = append(md.Records, deriveFileRecord(gr.mod, gr.file, evs, byGroup[gr.end:gr.end+gr.n], nan))
	}
	return l
}

// moduleForDXT maps a DXT module spelling onto the counter module its
// derived record lands in.
func moduleForDXT(m string) (ModuleID, bool) {
	switch m {
	case "X_POSIX":
		return ModulePOSIX, true
	case "X_MPIIO":
		return ModuleMPIIO, true
	case "X_STDIO":
		return ModuleSTDIO, true
	}
	return 0, false
}

// dxtDirNames are one transfer direction's derived counters; a name the
// module's tables do not have is empty and never written.
type dxtDirNames struct {
	ops, bytes, maxByte, time, seq, consec string
	hist                                   [NumSizeBuckets]string
}

// dxtNames are the counters FromDXT derives for one module.
type dxtNames struct {
	dir                                    [2]dxtDirNames // indexed by dxt.OpKind
	opens, notAligned, alignment           string
	fastestRank, fastestBytes, fastestTime string
	slowestRank, slowestBytes, slowestTime string
}

// dxtCounterNames is built once from the counter tables, so the hot loop
// concatenates nothing and can only ever write a counter its module has:
// STDIO has no size histogram, MPI-IO no MAX_BYTE counters, and only
// POSIX counts alignment and sequential/consecutive accesses.
var dxtCounterNames = func() (out [numModules]dxtNames) {
	for _, m := range []ModuleID{ModulePOSIX, ModuleMPIIO, ModuleSTDIO} {
		name := func(suffix string) string {
			if n := m.CounterPrefix() + suffix; IsCounter(m, n) || IsFCounter(m, n) {
				return n
			}
			return ""
		}
		// DXT traces MPI-IO's independent operations, and MPI-IO's size
		// histogram is the aggregate one.
		indep, agg := "", ""
		if m == ModuleMPIIO {
			indep, agg = "_INDEP", "_AGG"
		}
		dir := func(verb, past string) dxtDirNames {
			d := dxtDirNames{
				ops: name(indep + "_" + verb + "S"), bytes: name("_BYTES_" + past), maxByte: name("_MAX_BYTE_" + past),
				time: name("_F_" + verb + "_TIME"), seq: name("_SEQ_" + verb + "S"), consec: name("_CONSEC_" + verb + "S"),
			}
			for b, bucket := range sizeBuckets {
				d.hist[b] = name("_SIZE_" + verb + agg + "_" + bucket)
			}
			return d
		}
		out[m] = dxtNames{
			dir:   [2]dxtDirNames{dxt.OpWrite: dir("WRITE", "WRITTEN"), dxt.OpRead: dir("READ", "READ")},
			opens: name(indep + "_OPENS"), notAligned: name("_FILE_NOT_ALIGNED"), alignment: name("_FILE_ALIGNMENT"),
			fastestRank: name("_FASTEST_RANK"), fastestBytes: name("_FASTEST_RANK_BYTES"), fastestTime: name("_F_FASTEST_RANK_TIME"),
			slowestRank: name("_SLOWEST_RANK"), slowestBytes: name("_SLOWEST_RANK_BYTES"), slowestTime: name("_F_SLOWEST_RANK_TIME"),
		}
	}
	return out
}()

// direction is the transfer direction an event counts under: whatever is
// not a read is a write (the text form has no third op kind).
func direction(op dxt.OpKind) dxt.OpKind {
	if op == dxt.OpRead {
		return dxt.OpRead
	}
	return dxt.OpWrite
}

// dxtDirAgg accumulates one transfer direction of one file.
type dxtDirAgg struct {
	ops, bytes, maxByte, seq, consec int64
	time                             float64
	hist                             [NumSizeBuckets]int64
}

// deriveFileRecord aggregates one file's events — evs[i] for i in idx,
// canonical order — into a counter record. A file touched by more than
// one rank becomes a shared (Rank == SharedRank) aggregate record with
// fastest/slowest-rank counters, exactly as the Darshan runtime reduces
// shared files; a single-rank file keeps its rank. idx is scratch: it is
// reordered. nan says some start time in the trace is NaN.
//
// Everything accumulates in locals and each counter is written once. A
// counter exists in the record exactly when the event-by-event updates it
// replaces would have created it, and float sums add in the same order.
func deriveFileRecord(mod ModuleID, file string, evs []dxt.Event, idx []int, nan bool) *FileRecord {
	names := &dxtCounterNames[mod]
	var dir [2]dxtDirAgg
	var notAligned int64
	rank := evs[idx[0]].Rank
	for _, i := range idx {
		e := &evs[i]
		if e.Rank != rank {
			rank = SharedRank
		}
		dur := e.End - e.Start
		if dur < 0 {
			dur = 0
		}
		d := &dir[direction(e.Op)]
		d.ops++
		d.bytes += e.Length
		d.maxByte = max(d.maxByte, e.Offset+e.Length-1)
		d.time += dur
		d.hist[SizeBucketIndex(e.Length)]++
		if e.Offset%DXTFileAlignment != 0 {
			notAligned++
		}
	}

	// Per-rank passes: an open per contributing rank, sequentiality in
	// per-rank start order, and the shared-file rank aggregates. The
	// canonical order is (start, rank, seq), so ordering idx by (rank,
	// position) leaves every rank's events in start order — unless a NaN
	// start broke the canonical order, when each rank's run is put in
	// start order the way a stable sort leaves it.
	if rank == SharedRank {
		slices.SortFunc(idx, func(a, b int) int {
			if c := cmp.Compare(evs[a].Rank, evs[b].Rank); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	type rankAgg struct {
		rank  int
		bytes int64
		busy  float64
	}
	var fastest, slowest rankAgg
	var opens int64
	for len(idx) > 0 {
		n := 1
		for n < len(idx) && evs[idx[n]].Rank == evs[idx[0]].Rank {
			n++
		}
		run := idx[:n]
		idx = idx[n:]
		if nan {
			sort.SliceStable(run, func(i, j int) bool { return evs[run[i]].Start < evs[run[j]].Start })
		}
		agg := rankAgg{rank: evs[run[0]].Rank}
		prevEnd := [2]int64{-1, -1}
		for _, i := range run {
			e := &evs[i]
			agg.bytes += e.Length
			if d := e.End - e.Start; d > 0 {
				agg.busy += d
			}
			op := direction(e.Op)
			if pe := prevEnd[op]; pe >= 0 {
				if e.Offset >= pe {
					dir[op].seq++
				}
				if e.Offset == pe {
					dir[op].consec++
				}
			}
			prevEnd[op] = e.Offset + e.Length
		}
		if opens == 0 || agg.busy < fastest.busy {
			fastest = agg
		}
		if opens == 0 || agg.busy > slowest.busy {
			slowest = agg
		}
		opens++
	}

	r := NewFileRecord(file, rank)
	setC := func(name string, v int64, when bool) {
		if when && name != "" {
			r.Counters[name] = v
		}
	}
	setF := func(name string, v float64, when bool) {
		if when && name != "" {
			r.FCounters[name] = v
		}
	}
	for op := range dir {
		d, n := &dir[op], &names.dir[op]
		setC(n.ops, d.ops, d.ops > 0)
		setC(n.bytes, d.bytes, d.ops > 0)
		setC(n.maxByte, d.maxByte, d.maxByte > 0)
		setF(n.time, d.time, d.ops > 0)
		for b, c := range d.hist {
			setC(n.hist[b], c, c > 0)
		}
		setC(n.seq, d.seq, d.seq > 0)
		setC(n.consec, d.consec, d.consec > 0)
	}
	setC(names.notAligned, notAligned, notAligned > 0)
	setC(names.alignment, DXTFileAlignment, true)
	setC(names.opens, opens, true)
	shared := rank == SharedRank
	setC(names.fastestRank, int64(fastest.rank), shared)
	setC(names.fastestBytes, fastest.bytes, shared)
	setF(names.fastestTime, fastest.busy, shared)
	setC(names.slowestRank, int64(slowest.rank), shared)
	setC(names.slowestBytes, slowest.bytes, shared)
	setF(names.slowestTime, slowest.busy, shared)
	return r
}
