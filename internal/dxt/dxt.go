// Package dxt implements Darshan eXtended Tracing (DXT) — the fine-grained
// per-operation trace format the paper defers to future work ("we focus
// only on the original Darshan I/O traces and leave working with Darshan
// DXT traces as future work"). This package provides that extension: an
// event model matching upstream DXT (file, rank, operation, offset, length,
// start/end timestamps), a text codec in darshan-dxt-parser style, and
// segment analytics (per-rank timelines, bursts, phase detection) that
// complement the aggregate-counter diagnosis with temporal evidence.
package dxt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// OpKind is the traced operation type.
type OpKind uint8

// Operation kinds recorded by DXT.
const (
	OpWrite OpKind = iota
	OpRead
)

// String returns the upstream spelling ("write"/"read").
func (k OpKind) String() string {
	if k == OpRead {
		return "read"
	}
	return "write"
}

// Event is one traced I/O operation.
type Event struct {
	Module string // "X_POSIX" or "X_MPIIO", as upstream names them
	Rank   int
	File   string
	Op     OpKind
	Seq    int     // per-rank operation ordinal
	Offset int64   // file offset in bytes
	Length int64   // transfer length in bytes
	Start  float64 // seconds relative to job start
	End    float64
}

// Trace is a DXT event stream for one job.
type Trace struct {
	NProcs int
	Events []Event
}

// Sort orders events by (start time, rank, seq) — the canonical order.
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool { return eventLess(&t.Events[i], &t.Events[j]) })
}

// eventLess is the canonical order.
func eventLess(a, b *Event) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Seq < b.Seq
}

// WriteText renders the trace in darshan-dxt-parser style:
//
//	# DXT trace
//	# nprocs: 8
//	<module> <rank> <op> <segment> <offset> <length> <start> <end> <file>
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# DXT trace\n# nprocs: %d\n", t.NProcs)
	fmt.Fprintf(bw, "#<module>\t<rank>\t<op>\t<segment>\t<offset>\t<length>\t<start>\t<end>\t<file>\n")
	for _, e := range t.Events {
		fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%d\t%.6f\t%.6f\t%s\n",
			e.Module, e.Rank, e.Op, e.Seq, e.Offset, e.Length, e.Start, e.End, e.File)
	}
	return bw.Flush()
}

// ParseText reads a trace written by WriteText. It is a whole-body
// wrapper over TextParser, so buffered and chunked decoding of the same
// bytes agree by construction.
func ParseText(r io.Reader) (*Trace, error) {
	tp := NewTextParser()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		if err := tp.ParseLine(sc.Text()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tp.Trace(), nil
}

// RankTimeline summarizes one rank's activity.
type RankTimeline struct {
	Rank     int
	Ops      int
	Bytes    int64
	BusyTime float64 // sum of (end-start)
	First    float64
	Last     float64
}

// Timelines aggregates per-rank activity, sorted by rank.
func (t *Trace) Timelines() []RankTimeline {
	byRank := map[int]*RankTimeline{}
	for _, e := range t.Events {
		tl, ok := byRank[e.Rank]
		if !ok {
			tl = &RankTimeline{Rank: e.Rank, First: e.Start}
			byRank[e.Rank] = tl
		}
		tl.Ops++
		tl.Bytes += e.Length
		tl.BusyTime += e.End - e.Start
		if e.Start < tl.First {
			tl.First = e.Start
		}
		if e.End > tl.Last {
			tl.Last = e.End
		}
	}
	out := make([]RankTimeline, 0, len(byRank))
	for _, tl := range byRank {
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// Burst is a contiguous period of elevated I/O activity.
type Burst struct {
	Start, End float64
	Ops        int
	Bytes      int64
}

// Bursts detects I/O bursts: maximal event runs where the gap between
// consecutive operations (in global start order) never exceeds maxGap
// seconds, keeping only runs with at least minOps operations.
func (t *Trace) Bursts(maxGap float64, minOps int) []Burst {
	if len(t.Events) == 0 {
		return nil
	}
	evs := append([]Event(nil), t.Events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })

	var out []Burst
	cur := Burst{Start: evs[0].Start, End: evs[0].End, Ops: 1, Bytes: evs[0].Length}
	for _, e := range evs[1:] {
		if e.Start-cur.End <= maxGap {
			cur.Ops++
			cur.Bytes += e.Length
			if e.End > cur.End {
				cur.End = e.End
			}
			continue
		}
		if cur.Ops >= minOps {
			out = append(out, cur)
		}
		cur = Burst{Start: e.Start, End: e.End, Ops: 1, Bytes: e.Length}
	}
	if cur.Ops >= minOps {
		out = append(out, cur)
	}
	return out
}

// StragglerRank returns the rank whose busy time most exceeds the mean and
// the ratio of its busy time to the mean (0 when fewer than two ranks).
func (t *Trace) StragglerRank() (rank int, ratio float64) {
	tls := t.Timelines()
	if len(tls) < 2 {
		return 0, 0
	}
	var sum float64
	slowest := tls[0]
	for _, tl := range tls {
		sum += tl.BusyTime
		if tl.BusyTime > slowest.BusyTime {
			slowest = tl
		}
	}
	mean := sum / float64(len(tls))
	if mean <= 0 {
		return slowest.Rank, 0
	}
	return slowest.Rank, slowest.BusyTime / mean
}

// Summary renders a compact temporal description suitable for inclusion in
// a diagnosis prompt: total span, burst structure, and straggler signal.
func (t *Trace) Summary() string {
	var b strings.Builder
	tls := t.Timelines()
	var span float64
	var bytes int64
	for _, tl := range tls {
		if tl.Last > span {
			span = tl.Last
		}
		bytes += tl.Bytes
	}
	fmt.Fprintf(&b, "DXT temporal summary: %d events from %d ranks over %.2f s, %.1f MiB moved.\n",
		len(t.Events), len(tls), span, float64(bytes)/(1<<20))
	bursts := t.Bursts(0.050, 8)
	fmt.Fprintf(&b, "Detected %d I/O burst(s).", len(bursts))
	for i, bu := range bursts {
		if i == 3 {
			b.WriteString(" ...")
			break
		}
		fmt.Fprintf(&b, " Burst %d: %.2f-%.2f s, %d ops, %.1f MiB.",
			i+1, bu.Start, bu.End, bu.Ops, float64(bu.Bytes)/(1<<20))
	}
	b.WriteString("\n")
	if rank, ratio := t.StragglerRank(); ratio > 1.5 {
		fmt.Fprintf(&b, "Rank %d is a straggler: %.1fx the mean per-rank I/O time.\n", rank, ratio)
	}
	return b.String()
}
