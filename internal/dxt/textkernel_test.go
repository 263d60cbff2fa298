package dxt

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestFieldsMatchesStringsFields: the allocation-free split is
// strings.Fields for every line — the count always, the fields up to the
// capacity handed in — Unicode white space and invalid UTF-8 included.
func TestFieldsMatchesStringsFields(t *testing.T) {
	check := func(line string) {
		t.Helper()
		want := strings.Fields(line)
		for _, capacity := range []int{0, 3, 9, 16} {
			dst := make([]string, capacity)
			n := fields(line, dst)
			if n != len(want) {
				t.Fatalf("fields(%q) counts %d fields, strings.Fields %d", line, n, len(want))
			}
			if stored := min(n, capacity); !reflect.DeepEqual(dst[:stored], want[:stored]) {
				t.Fatalf("fields(%q) = %q, strings.Fields %q", line, dst[:stored], want[:stored])
			}
		}
	}
	for _, line := range []string{
		"", " ", "\t \n", "a", " a", "a ", "a b", "a\tb\vc\fd\re\nf g", "  lead and trail \t",
		"X_POSIX\t0\twrite\t0\t0\t10\t0.1\t0.2\t/f",
		"a\u0085b", "a\u00a0b", "a\u2003b\u3000c", "a\u2028b\u2029c", "a\u1680b\u205fc", // Unicode white space
		"caf\u00e9 cr\u00e8me", "a\u200bb", "a\x1cb\x1fc", // not white space: a letter, ZWSP, ASCII separators
		"a\xffb c", "\xa0", "a\xc2", "\x85 x", // invalid UTF-8 is never white space
		"1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18",
	} {
		check(line)
	}
	alphabet := []rune{'a', 'Z', '0', '/', ' ', ' ', '\t', '\n', '\v', '\f', '\r', 0x1c, 0x85, 0xa0, 0x2003, 0x200b, 0x3000, 0xe9, 0xfffd}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		b := make([]byte, 0, 40)
		for n := rng.Intn(30); n > 0; n-- {
			if rng.Intn(12) == 0 {
				b = append(b, byte(0x80+rng.Intn(0x80))) // a stray continuation or lead byte
			} else {
				b = append(b, string(alphabet[rng.Intn(len(alphabet))])...)
			}
		}
		check(string(b))
	}
}

// timestampEdges are the values the integer quantization could get wrong:
// signed zeros, subnormals, exact ties of the 1e-6 grid (k+1/2 microseconds
// is a dyadic rational only at odd multiples of 2^-7) and their
// neighbours, the 1e9 hand-over to strconv and everything beyond it.
func timestampEdges() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1p-1023, 4e-7, 5e-7, 6e-7, -5e-7, 1.0000005, 0.001500, 12.3456789012,
		1e9, -1e9, math.Nextafter(1e9, 0), math.Nextafter(1e9, 2e9), 999999999.9999995, 1e15, 1e300,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, j := range []float64{1, 3, 5, 7, 127, 129, 12345677, 1<<36 + 1} {
		tie := j * 0x1p-7
		edges = append(edges, tie, -tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
	}
	return edges
}

// TestCanonicalMatchesOracle: the canonical form — timestamps bit for
// bit, event order — against its definition (a strconv round trip per
// timestamp, an unconditional clone and stable sort).
func TestCanonicalMatchesOracle(t *testing.T) {
	edges := timestampEdges()
	tr := &Trace{NProcs: 2}
	for i, v := range edges {
		tr.Events = append(tr.Events, Event{Module: "X_POSIX", Rank: i % 3, File: "/f", Seq: i, Start: v, End: edges[len(edges)-1-i]})
	}
	if diff := diffTraces(tr.Canonical(), oracleCanonical(tr)); diff != "" {
		t.Fatal(diff)
	}

	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 500; round++ {
		tr := &Trace{NProcs: rng.Intn(5)}
		for i, n := 0, rng.Intn(60); i < n; i++ {
			var start float64
			switch rng.Intn(4) {
			case 0:
				start = edges[rng.Intn(len(edges))]
			case 1:
				start = float64(rng.Int63n(1<<40)) / 128 // ties and near-ties
			case 2:
				start = float64(rng.Intn(50)) / 10 // equal starts: rank and seq decide
			default:
				start = rng.Float64() * math.Pow(10, float64(rng.Intn(12)-3))
			}
			tr.Events = append(tr.Events, Event{Module: "X_POSIX", Rank: rng.Intn(4), File: "/f", Seq: rng.Intn(3),
				Offset: int64(i), Start: start, End: start + rng.Float64()})
		}
		before := append([]Event(nil), tr.Events...)
		c := tr.Canonical()
		if diff := diffTraces(c, oracleCanonical(tr)); diff != "" {
			t.Fatalf("round %d: %s", round, diff)
		}
		if diff := diffTraces(tr, &Trace{NProcs: tr.NProcs, Events: before}); diff != "" {
			t.Fatalf("round %d: Canonical changed its receiver: %s", round, diff)
		}
		// The canonical form is a fixed point, and one pass recognises it:
		// nothing is cloned, quantized or sorted a second time — unless a
		// NaN start left the order undefined.
		again := c.Canonical()
		if diff := diffTraces(again, oracleCanonical(c)); diff != "" {
			t.Fatalf("round %d: canonical form is not a fixed point: %s", round, diff)
		}
		hasNaN := false
		for _, e := range c.Events {
			hasNaN = hasNaN || e.Start != e.Start
		}
		if !hasNaN && again != c {
			t.Fatalf("round %d: an already canonical trace was cloned again", round)
		}
	}
}
