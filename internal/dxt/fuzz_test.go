package dxt

import (
	"math/rand"
	"strings"
	"testing"
)

// fuzzSeedTrace is a small mixed trace used to seed the corpus.
func fuzzSeedTrace() *Trace {
	return &Trace{
		NProcs: 4,
		Events: []Event{
			{Module: "X_POSIX", Rank: 0, File: "/scratch/a", Op: OpWrite, Seq: 0, Offset: 0, Length: 4096, Start: 0.001, End: 0.002},
			{Module: "X_POSIX", Rank: 1, File: "/scratch/a", Op: OpWrite, Seq: 0, Offset: 4096, Length: 4096, Start: 0.0015, End: 0.003},
			{Module: "X_MPIIO", Rank: 2, File: "/scratch/b", Op: OpRead, Seq: 0, Offset: 100, Length: 77, Start: 0.01, End: 0.0125},
			{Module: "X_STDIO", Rank: 3, File: "/scratch/c", Op: OpWrite, Seq: 1, Offset: 3000, Length: 3000, Start: 0.02, End: 0.021},
		},
	}
}

// FuzzParseTextChunking: for arbitrary bodies split at arbitrary chunk
// boundaries, the incremental TextParser (fed reassembled lines, the way
// the fleet's ingest parser drives it) must agree with the whole-body
// ParseText — same accept/reject decision, same canonical trace — and
// neither path may panic on malformed input. Both must also agree with
// the oracle (the strings.Fields parser and the strconv-quantized,
// always-sorted canonical form they replaced): same accept/reject, the
// same trace, the same canonical trace.
func FuzzParseTextChunking(f *testing.F) {
	f.Add(TextString(fuzzSeedTrace()), uint16(1))
	f.Add(TextString(fuzzSeedTrace()), uint16(97))
	f.Add("# DXT trace\n# nprocs: 2\n", uint16(3))
	f.Add("# DXT trace\n# nprocs: nope\n", uint16(3))
	f.Add("X_POSIX\t0\twrite\t0\t0\t10\t0.1\t0.2\t/f\nshort line\n", uint16(5))
	f.Add("X_POSIX 0 frobnicate 0 0 10 0.1 0.2 /f\n", uint16(5))
	f.Add("X_POSIX\t0\twrite\t0\t0\t1e99\tNaN\tInf\t/f\n", uint16(9))
	f.Add("X_POSIX\u00a00\u2003read\v1\f2\r3\u30000.5\u00851.5 /f\u00e9\n", uint16(2)) // Unicode white space splits fields too
	f.Add("X_POSIX 0 read 1 2 3 0.5 1.5 /f\xa0x\n X_POSIX 0 read 1 2 3 0.5 1.5 /f extra\n", uint16(2))
	f.Add("X_POSIX 1 read 0 0 1 0.0000005 0.0000015 /f\nX_POSIX 0 read 0 0 1 -0 1e9 /f\nX_POSIX 0 write 0 0 1 5e-324 999999999.9999995 /f\n", uint16(4))

	f.Fuzz(func(t *testing.T, body string, seed uint16) {
		if len(body) > 1<<20 {
			return
		}
		whole, wholeErr := ParseText(strings.NewReader(body))
		oracle, oracleErr := oracleParseText(body)
		if (wholeErr == nil) != (oracleErr == nil) {
			t.Fatalf("accept/reject diverged: ParseText err=%v, oracle err=%v (body %q)", wholeErr, oracleErr, body)
		}
		if wholeErr == nil {
			if diff := diffTraces(whole, oracle); diff != "" {
				t.Fatalf("parse differs from the oracle: %s (body %q)", diff, body)
			}
			if diff := diffTraces(whole.Canonical(), oracleCanonical(oracle)); diff != "" {
				t.Fatalf("canonical form differs from the oracle: %s (body %q)", diff, body)
			}
		}

		// Incremental: split the body at random byte boundaries, carry
		// partial lines across chunks exactly as ingest does.
		rng := rand.New(rand.NewSource(int64(seed)))
		tp := NewTextParser()
		var carry string
		var incErr error
	feed:
		for off := 0; off < len(body); {
			n := 1 + rng.Intn(97)
			if n > len(body)-off {
				n = len(body) - off
			}
			carry += body[off : off+n]
			off += n
			for {
				nl := strings.IndexByte(carry, '\n')
				if nl < 0 {
					break
				}
				if incErr = tp.ParseLine(carry[:nl]); incErr != nil {
					break feed
				}
				carry = carry[nl+1:]
			}
		}
		if incErr == nil && carry != "" {
			incErr = tp.ParseLine(carry)
		}

		if (wholeErr == nil) != (incErr == nil) {
			t.Fatalf("accept/reject diverged: whole-body err=%v, incremental err=%v (body %q)", wholeErr, incErr, body)
		}
		if wholeErr != nil {
			return
		}
		got := TextString(tp.Trace().Canonical())
		want := TextString(whole.Canonical())
		if got != want {
			t.Fatalf("canonical traces diverged:\nincremental:\n%s\nwhole-body:\n%s", got, want)
		}
	})
}

// FuzzTextRoundTrip: any trace that parses must survive a
// WriteText/ParseText round trip with its canonical form intact, and the
// analytics must tolerate whatever events the parser accepted.
func FuzzTextRoundTrip(f *testing.F) {
	f.Add(TextString(fuzzSeedTrace()))
	f.Add("# DXT trace\n# nprocs: 1\nX_POSIX\t0\twrite\t0\t0\t10\t0.000001\t0.000002\t/f\n")
	f.Add("X_POSIX\t-5\tread\t-1\t-3\t-10\t-0.5\t-0.25\t/f\n")

	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 1<<20 {
			return
		}
		tr, err := ParseText(strings.NewReader(body))
		if err != nil {
			return
		}
		again, err := ParseText(strings.NewReader(TextString(tr)))
		if err != nil {
			t.Fatalf("re-parse of rendered trace failed: %v", err)
		}
		if got, want := TextString(again.Canonical()), TextString(tr.Canonical()); got != want {
			t.Fatalf("canonical form not stable across round trip:\ngot:\n%s\nwant:\n%s", got, want)
		}
		// Analytics must not panic on any accepted trace.
		tr.Timelines()
		tr.Bursts(0.050, 8)
		tr.Bursts(0, 0)
		tr.StragglerRank()
		_ = tr.Summary()
	})
}
