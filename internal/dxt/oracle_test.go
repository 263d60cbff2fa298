package dxt

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The oracles: the text parser and the canonical form as they were before
// the front-door kernel was rebuilt (strings.Fields per line, a strconv
// round trip per timestamp, an unconditional clone and sort), kept as the
// references the differential and fuzz tests compare the kernel against.

func oracleParseText(body string) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for lineno := 1; sc.Scan(); lineno++ {
		if err := oracleParseLine(t, lineno, sc.Text()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func oracleParseLine(t *Trace, lineno int, raw string) error {
	line := strings.TrimSpace(raw)
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		if strings.HasPrefix(line, "# nprocs:") {
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "# nprocs:")))
			if err != nil {
				return fmt.Errorf("dxt: line %d: bad nprocs", lineno)
			}
			t.NProcs = n
		}
		return nil
	}
	f := strings.Fields(line)
	if len(f) != 9 {
		return fmt.Errorf("dxt: line %d: expected 9 fields, got %d", lineno, len(f))
	}
	var e Event
	e.Module = f[0]
	var err error
	if e.Rank, err = strconv.Atoi(f[1]); err != nil {
		return fmt.Errorf("dxt: line %d: bad rank", lineno)
	}
	switch f[2] {
	case "read":
		e.Op = OpRead
	case "write":
		e.Op = OpWrite
	default:
		return fmt.Errorf("dxt: line %d: bad op %q", lineno, f[2])
	}
	if e.Seq, err = strconv.Atoi(f[3]); err != nil {
		return fmt.Errorf("dxt: line %d: bad segment", lineno)
	}
	if e.Offset, err = strconv.ParseInt(f[4], 10, 64); err != nil {
		return fmt.Errorf("dxt: line %d: bad offset", lineno)
	}
	if e.Length, err = strconv.ParseInt(f[5], 10, 64); err != nil {
		return fmt.Errorf("dxt: line %d: bad length", lineno)
	}
	if e.Start, err = strconv.ParseFloat(f[6], 64); err != nil {
		return fmt.Errorf("dxt: line %d: bad start", lineno)
	}
	if e.End, err = strconv.ParseFloat(f[7], 64); err != nil {
		return fmt.Errorf("dxt: line %d: bad end", lineno)
	}
	e.File = f[8]
	t.Events = append(t.Events, e)
	return nil
}

// oracleQuantizeTS is the timestamp quantization by definition.
func oracleQuantizeTS(v float64) float64 {
	q, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 6, 64), 64)
	return q
}

func oracleCanonical(t *Trace) *Trace {
	c := &Trace{NProcs: t.NProcs, Events: append([]Event(nil), t.Events...)}
	for i := range c.Events {
		c.Events[i].Start = oracleQuantizeTS(c.Events[i].Start)
		c.Events[i].End = oracleQuantizeTS(c.Events[i].End)
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

// diffTraces names the first difference between two traces, or "".
// Timestamps are compared by their bits, so a NaN equals itself and the
// two zeros differ.
func diffTraces(got, want *Trace) string {
	if got.NProcs != want.NProcs || len(got.Events) != len(want.Events) {
		return fmt.Sprintf("nprocs %d with %d events, want nprocs %d with %d events",
			got.NProcs, len(got.Events), want.NProcs, len(want.Events))
	}
	for i, w := range want.Events {
		g := got.Events[i]
		if math.Float64bits(g.Start) != math.Float64bits(w.Start) || math.Float64bits(g.End) != math.Float64bits(w.End) {
			return fmt.Sprintf("event %d: timestamps (%v, %v) [%#x, %#x], want (%v, %v) [%#x, %#x]", i,
				g.Start, g.End, math.Float64bits(g.Start), math.Float64bits(g.End),
				w.Start, w.End, math.Float64bits(w.Start), math.Float64bits(w.End))
		}
		g.Start, g.End, w.Start, w.End = 0, 0, 0, 0
		if g != w {
			return fmt.Sprintf("event %d: %+v, want %+v", i, g, w)
		}
	}
	return ""
}
