package dxt

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TextMagic is the first line of every DXT text rendering. Ingest layers
// sniff it to select this codec, the same way the gzip magic selects the
// binary Darshan codec.
const TextMagic = "# DXT trace"

// TextParser is the incremental core of ParseText: it consumes a DXT text
// rendering one complete line at a time and accumulates the decoded Trace
// as it goes, so streaming callers (the fleet's ingest parser) can decode
// chunked uploads without buffering the body. Feeding the same lines in
// the same order always yields the same Trace as a whole-body ParseText —
// ParseText is itself implemented on top of this type.
type TextParser struct {
	trace  *Trace
	lineno int
	// names interns the two strings every event repeats (module, file):
	// a trace holds one copy of each, not a reference into every line
	// it was parsed from.
	names map[string]string
}

// NewTextParser returns a parser accumulating into an empty Trace.
func NewTextParser() *TextParser {
	return &TextParser{trace: &Trace{}, names: make(map[string]string)}
}

// intern returns the parser's own copy of s, shared by every event that
// repeats it.
func (tp *TextParser) intern(s string) string {
	if v, ok := tp.names[s]; ok {
		return v
	}
	s = strings.Clone(s)
	tp.names[s] = s
	return s
}

// ParseLine consumes one complete input line (without its trailing
// newline). Blank lines are skipped; errors name the 1-based line number.
func (tp *TextParser) ParseLine(raw string) error {
	tp.lineno++
	line := strings.TrimSpace(raw)
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		if strings.HasPrefix(line, "# nprocs:") {
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "# nprocs:")))
			if err != nil {
				return fmt.Errorf("dxt: line %d: bad nprocs", tp.lineno)
			}
			tp.trace.NProcs = n
		}
		return nil
	}
	var f [9]string
	if n := fields(line, f[:]); n != len(f) {
		return fmt.Errorf("dxt: line %d: expected 9 fields, got %d", tp.lineno, n)
	}
	var e Event
	var err error
	if e.Rank, err = strconv.Atoi(f[1]); err != nil {
		return fmt.Errorf("dxt: line %d: bad rank", tp.lineno)
	}
	switch f[2] {
	case "read":
		e.Op = OpRead
	case "write":
		e.Op = OpWrite
	default:
		return fmt.Errorf("dxt: line %d: bad op %q", tp.lineno, f[2])
	}
	if e.Seq, err = strconv.Atoi(f[3]); err != nil {
		return fmt.Errorf("dxt: line %d: bad segment", tp.lineno)
	}
	if e.Offset, err = strconv.ParseInt(f[4], 10, 64); err != nil {
		return fmt.Errorf("dxt: line %d: bad offset", tp.lineno)
	}
	if e.Length, err = strconv.ParseInt(f[5], 10, 64); err != nil {
		return fmt.Errorf("dxt: line %d: bad length", tp.lineno)
	}
	if e.Start, err = strconv.ParseFloat(f[6], 64); err != nil {
		return fmt.Errorf("dxt: line %d: bad start", tp.lineno)
	}
	if e.End, err = strconv.ParseFloat(f[7], 64); err != nil {
		return fmt.Errorf("dxt: line %d: bad end", tp.lineno)
	}
	e.Module, e.File = tp.intern(f[0]), tp.intern(f[8])
	tp.trace.Events = append(tp.trace.Events, e)
	return nil
}

// Lines returns the number of lines consumed so far (blank lines
// included).
func (tp *TextParser) Lines() int { return tp.lineno }

// Trace returns the accumulated trace. It is live: further ParseLine
// calls keep mutating it, so streaming callers may inspect it mid-parse
// but must stop feeding before handing it off.
func (tp *TextParser) Trace() *Trace { return tp.trace }

// Canonical returns the rendering-neutral form of a trace: its events in
// canonical (start, rank, seq) order with the timestamps quantized through
// the text precision (%.6f — WriteText's format). A trace that round-trips
// through WriteText/ParseText and one that never left memory canonicalize
// to identical contents, which is the property darshan.ContentDigest
// builds on for DXT-carrying logs. The receiver is never mutated. A trace
// that is already canonical — one pass checks it — is returned as it is;
// any other gets a private clone. Either way the result is to be read,
// not written.
func (t *Trace) Canonical() *Trace {
	if t.isCanonical() {
		return t
	}
	c := &Trace{
		NProcs: t.NProcs,
		Events: append([]Event(nil), t.Events...),
	}
	for i := range c.Events {
		c.Events[i].Start = Quantize(c.Events[i].Start, 6)
		c.Events[i].End = Quantize(c.Events[i].End, 6)
	}
	c.Sort()
	return c
}

// isCanonical reports whether Canonical would return an equal trace:
// every timestamp is its own quantization, bit for bit, and no event
// sorts before its predecessor (a stable sort moves nothing then). A NaN
// start has no place in the order, so such a trace never passes.
func (t *Trace) isCanonical() bool {
	for i := range t.Events {
		e := &t.Events[i]
		if math.Float64bits(Quantize(e.Start, 6)) != math.Float64bits(e.Start) ||
			math.Float64bits(Quantize(e.End, 6)) != math.Float64bits(e.End) ||
			e.Start != e.Start {
			return false
		}
		if i > 0 && eventLess(e, &t.Events[i-1]) {
			return false
		}
	}
	return true
}

// TextString renders the trace as a string (WriteText convenience).
func TextString(t *Trace) string {
	var b strings.Builder
	_ = WriteText(&b, t)
	return b.String()
}
