package darshan

import (
	"bufio"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"ioagent/internal/dxt"
)

// The oracles: the text parser and the DXT derivation as they were before
// the front-door kernel was rebuilt — strings.Fields per line, a linear
// record scan, strconv quantization, a map read-modify-write per event —
// kept as the references the differential and fuzz tests compare the
// kernel against. They carry the two bug fixes that landed with the
// rebuild (records are found by the id the line prints; MPI-IO counters
// are named with CounterPrefix), so a difference is a kernel bug.

func oracleParseText(text string) (*Log, error) {
	l := NewLog()
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for lineno := 1; sc.Scan(); lineno++ {
		line := strings.TrimSpace(sc.Text())
		var err error
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			err = oracleHeaderLine(l, line)
		default:
			err = oracleCounterLine(l, line)
		}
		if err != nil {
			return nil, fmt.Errorf("darshan: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

func oracleHeaderLine(l *Log, line string) error {
	body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	if body == "" || strings.HasPrefix(body, "<module>") {
		return nil
	}
	key, val, found := strings.Cut(body, ":")
	if !found {
		return nil
	}
	val = strings.TrimSpace(val)
	var err error
	switch strings.TrimSpace(key) {
	case "darshan log version":
		l.Version = val
	case "exe":
		l.Job.Exe = val
	case "uid":
		l.Job.UID, err = strconv.Atoi(val)
	case "jobid":
		l.Job.JobID, err = strconv.ParseInt(val, 10, 64)
	case "start_time":
		l.Job.StartTime, err = strconv.ParseInt(val, 10, 64)
	case "end_time":
		l.Job.EndTime, err = strconv.ParseInt(val, 10, 64)
	case "nprocs":
		l.Job.NProcs, err = strconv.Atoi(val)
	case "run time":
		l.Job.RunTime, err = strconv.ParseFloat(val, 64)
	case "metadata":
		k, v, ok := strings.Cut(val, "=")
		if !ok {
			return fmt.Errorf("bad metadata entry %q", val)
		}
		l.Job.Metadata[strings.TrimSpace(k)] = strings.TrimSpace(v)
	case "mount entry":
		fields := strings.Fields(val)
		if len(fields) != 2 {
			return fmt.Errorf("bad mount entry %q", val)
		}
		l.Job.Mounts = append(l.Job.Mounts, Mount{Point: fields[0], FSType: fields[1]})
	}
	return err
}

func oracleCounterLine(l *Log, line string) error {
	fields := strings.Fields(line)
	if len(fields) != 8 {
		return fmt.Errorf("expected 8 fields, got %d in %q", len(fields), line)
	}
	m, err := ParseModuleID(fields[0])
	if err != nil {
		return err
	}
	rank, err := strconv.Atoi(fields[1])
	if err != nil {
		return fmt.Errorf("bad rank %q", fields[1])
	}
	recID, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return fmt.Errorf("bad record id %q", fields[2])
	}
	counter, valStr := fields[3], fields[4]

	md := l.Module(m)
	var r *FileRecord
	for _, have := range md.Records {
		if have.RecordID == recID && have.Rank == rank {
			r = have
			break
		}
	}
	if r == nil {
		r = NewFileRecord(fields[5], rank)
		r.RecordID = recID
		r.MountPt = fields[6]
		r.FSType = fields[7]
		md.Records = append(md.Records, r)
	}

	switch {
	case IsCounter(m, counter):
		v, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			return fmt.Errorf("bad integer value %q for %s", valStr, counter)
		}
		r.Counters[counter] = v
	case IsFCounter(m, counter):
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("bad float value %q for %s", valStr, counter)
		}
		r.FCounters[counter] = v
	default:
		return fmt.Errorf("unknown counter %q for module %s", counter, m)
	}
	return nil
}

// oracleCanonical is dxt.Trace.Canonical by definition: clone, round every
// timestamp through the strconv round trip, stable-sort.
func oracleCanonical(t *dxt.Trace) *dxt.Trace {
	c := &dxt.Trace{NProcs: t.NProcs, Events: append([]dxt.Event(nil), t.Events...)}
	for i := range c.Events {
		c.Events[i].Start = quantizeReference(c.Events[i].Start, 6)
		c.Events[i].End = quantizeReference(c.Events[i].End, 6)
	}
	sort.SliceStable(c.Events, func(i, j int) bool {
		a, b := c.Events[i], c.Events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Seq < b.Seq
	})
	return c
}

func oracleFromDXT(t *dxt.Trace) *Log {
	ct := oracleCanonical(t)
	l := NewLog()
	l.Job.NProcs = ct.NProcs

	type fileKey struct {
		mod  ModuleID
		file string
	}
	byFile := map[fileKey][]dxt.Event{}
	var keys []fileKey
	for _, e := range ct.Events {
		if e.Rank+1 > l.Job.NProcs {
			l.Job.NProcs = e.Rank + 1
		}
		if e.End > l.Job.RunTime {
			l.Job.RunTime = e.End
		}
		mod, ok := moduleForDXT(e.Module)
		if !ok {
			continue
		}
		k := fileKey{mod, e.File}
		if _, seen := byFile[k]; !seen {
			keys = append(keys, k)
		}
		byFile[k] = append(byFile[k], e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].mod != keys[j].mod {
			return keys[i].mod < keys[j].mod
		}
		return keys[i].file < keys[j].file
	})

	mpi := false
	for _, k := range keys {
		if k.mod == ModuleMPIIO {
			mpi = true
		}
		oracleDeriveFileRecord(l, k.mod, k.file, byFile[k])
	}
	if mpi {
		l.Job.Metadata["mpi"] = "1"
	}
	l.DXT = ct
	return l
}

func oracleDeriveFileRecord(l *Log, mod ModuleID, file string, evs []dxt.Event) {
	ranks := map[int][]dxt.Event{}
	for _, e := range evs {
		ranks[e.Rank] = append(ranks[e.Rank], e)
	}
	rank := evs[0].Rank
	if len(ranks) > 1 {
		rank = SharedRank
	}
	r := l.Module(mod).Record(file, rank)

	prefix := mod.CounterPrefix() // the fix: mod.String() is "MPI-IO"
	readCounter, writeCounter := prefix+"_READS", prefix+"_WRITES"
	if mod == ModuleMPIIO {
		readCounter, writeCounter = "MPIIO_INDEP_READS", "MPIIO_INDEP_WRITES"
	}
	histName := func(op string, n int64) string {
		if mod == ModuleMPIIO {
			op += "_AGG"
		}
		return prefix + "_SIZE_" + op + "_" + sizeBuckets[SizeBucketIndex(n)]
	}

	for _, e := range evs {
		dur := e.End - e.Start
		if dur < 0 {
			dur = 0
		}
		if e.Op == dxt.OpRead {
			r.AddC(readCounter, 1)
			r.AddC(prefix+"_BYTES_READ", e.Length)
			if mod != ModuleMPIIO { // the fix: MPI-IO has no MAX_BYTE counters
				r.MaxC(prefix+"_MAX_BYTE_READ", e.Offset+e.Length-1)
			}
			r.AddF(prefix+"_F_READ_TIME", dur)
			if mod != ModuleSTDIO {
				r.AddC(histName("READ", e.Length), 1)
			}
		} else {
			r.AddC(writeCounter, 1)
			r.AddC(prefix+"_BYTES_WRITTEN", e.Length)
			if mod != ModuleMPIIO {
				r.MaxC(prefix+"_MAX_BYTE_WRITTEN", e.Offset+e.Length-1)
			}
			r.AddF(prefix+"_F_WRITE_TIME", dur)
			if mod != ModuleSTDIO {
				r.AddC(histName("WRITE", e.Length), 1)
			}
		}
		if mod == ModulePOSIX && e.Offset%DXTFileAlignment != 0 {
			r.AddC("POSIX_FILE_NOT_ALIGNED", 1)
		}
	}
	if mod == ModulePOSIX {
		r.SetC("POSIX_FILE_ALIGNMENT", DXTFileAlignment)
	}

	opensCounter := prefix + "_OPENS"
	if mod == ModuleMPIIO {
		opensCounter = "MPIIO_INDEP_OPENS"
	}
	rankIDs := make([]int, 0, len(ranks))
	for rk := range ranks {
		rankIDs = append(rankIDs, rk)
	}
	sort.Ints(rankIDs)

	type rankAgg struct {
		rank  int
		bytes int64
		busy  float64
	}
	var fastest, slowest *rankAgg
	for _, rk := range rankIDs {
		r.AddC(opensCounter, 1)
		res := ranks[rk]
		sort.SliceStable(res, func(i, j int) bool { return res[i].Start < res[j].Start })
		agg := &rankAgg{rank: rk}
		prevEnd := map[dxt.OpKind]int64{dxt.OpRead: -1, dxt.OpWrite: -1}
		for _, e := range res {
			agg.bytes += e.Length
			if d := e.End - e.Start; d > 0 {
				agg.busy += d
			}
			if mod == ModulePOSIX {
				if pe := prevEnd[e.Op]; pe >= 0 {
					dir := "WRITES"
					if e.Op == dxt.OpRead {
						dir = "READS"
					}
					if e.Offset >= pe {
						r.AddC("POSIX_SEQ_"+dir, 1)
					}
					if e.Offset == pe {
						r.AddC("POSIX_CONSEC_"+dir, 1)
					}
				}
				prevEnd[e.Op] = e.Offset + e.Length
			}
		}
		if fastest == nil || agg.busy < fastest.busy {
			fastest = agg
		}
		if slowest == nil || agg.busy > slowest.busy {
			slowest = agg
		}
	}
	if rank == SharedRank && fastest != nil && slowest != nil {
		r.SetC(prefix+"_FASTEST_RANK", int64(fastest.rank))
		r.SetC(prefix+"_FASTEST_RANK_BYTES", fastest.bytes)
		r.SetC(prefix+"_SLOWEST_RANK", int64(slowest.rank))
		r.SetC(prefix+"_SLOWEST_RANK_BYTES", slowest.bytes)
		r.SetF(prefix+"_F_FASTEST_RANK_TIME", fastest.busy)
		r.SetF(prefix+"_F_SLOWEST_RANK_TIME", slowest.busy)
	}
}

// diffLogs names the first difference between two logs, or "".
// Floats are compared by their bits: a NaN start time derives NaN sums,
// which must come out the same too.
func diffLogs(got, want *Log) string {
	sameF := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	gt, wt := got.DXT, want.DXT
	if gt == nil || wt == nil {
		gt, wt = &dxt.Trace{}, &dxt.Trace{}
		if got.DXT != want.DXT {
			return "one log carries an event stream, the other none"
		}
	}
	if len(gt.Events) != len(wt.Events) || gt.NProcs != wt.NProcs {
		return "canonical event streams differ in size"
	}
	for i, w := range wt.Events {
		g := gt.Events[i]
		if !sameF(g.Start, w.Start) || !sameF(g.End, w.End) {
			return fmt.Sprintf("event %d: timestamps (%v, %v), oracle (%v, %v)", i, g.Start, g.End, w.Start, w.End)
		}
		g.Start, g.End, w.Start, w.End = 0, 0, 0, 0
		if g != w {
			return fmt.Sprintf("event %d: %+v, oracle %+v", i, g, w)
		}
	}
	gj, wj := got.Job, want.Job
	if !sameF(gj.RunTime, wj.RunTime) {
		return fmt.Sprintf("run time %v, oracle %v", gj.RunTime, wj.RunTime)
	}
	gj.RunTime, wj.RunTime = 0, 0
	if got.Version != want.Version || !reflect.DeepEqual(gj, wj) {
		return fmt.Sprintf("job %+v, oracle %+v", gj, wj)
	}
	if len(got.Modules) != len(want.Modules) {
		return "module sets differ"
	}
	for m, w := range want.Modules {
		g := got.Modules[m]
		if g == nil || len(g.Records) != len(w.Records) {
			return fmt.Sprintf("module %s: record lists differ", m)
		}
		for i, wr := range w.Records {
			gr := g.Records[i]
			diff := fmt.Sprintf("module %s record %d:\n got    %+v\n oracle %+v", m, i, gr, wr)
			if gr.RecordID != wr.RecordID || gr.Rank != wr.Rank || gr.Name != wr.Name ||
				gr.MountPt != wr.MountPt || gr.FSType != wr.FSType ||
				!reflect.DeepEqual(gr.Counters, wr.Counters) || len(gr.FCounters) != len(wr.FCounters) {
				return diff
			}
			for name, v := range wr.FCounters {
				if gv, ok := gr.FCounters[name]; !ok || !sameF(gv, v) {
					return diff
				}
			}
		}
	}
	return ""
}
