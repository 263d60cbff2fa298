package ingest_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/scenario"
	"ioagent/internal/tracebench"
)

// The codec kernel's contract, pinned from outside: digests are
// byte-for-byte what they were when testdata/digests.golden was written
// (they key persisted caches, journals and ring placement), and the
// per-hop allocation budget holds.

var updateGolden = flag.Bool("update", false, "rewrite testdata/digests.golden from this build")

const goldenPath = "testdata/digests.golden"

// wire is one named rendering of one trace.
type wire struct {
	name string
	body []byte
}

// suiteBinary renders the 40 TraceBench logs in the binary container.
func suiteBinary(t testing.TB) []wire {
	t.Helper()
	var out []wire
	for _, tr := range tracebench.Suite() {
		var buf bytes.Buffer
		if err := darshan.Encode(&buf, tr.Log()); err != nil {
			t.Fatal(err)
		}
		out = append(out, wire{tr.Name + "/binary", buf.Bytes()})
	}
	return out
}

// goldenInputs is what the golden file covers: TraceBench 40 x {binary,
// parser text} and the ten-scenario matrix (binary and DXT text).
func goldenInputs(t testing.TB) []wire {
	t.Helper()
	out := suiteBinary(t)
	for _, tr := range tracebench.Suite() {
		text, err := darshan.TextString(tr.Log())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wire{tr.Name + "/text", []byte(text)})
	}
	for _, sc := range scenario.Matrix() {
		body, _ := sc.Build()
		out = append(out, wire{"scenario/" + sc.Name, body})
	}
	return out
}

// TestGoldenDigests: every digest in testdata/digests.golden (generated
// at the commit before the codec kernel was rebuilt) reproduces, so
// snapshots, journals and ring placement written by older builds stay
// valid.
func TestGoldenDigests(t *testing.T) {
	var got strings.Builder
	for _, w := range goldenInputs(t) {
		_, digest, err := ingest.Decode(w.body)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", digest, w.name)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Fatalf("digest drifted at line %d:\n got  %s\n want %s", i+1, line, wantLines[min(i, len(wantLines)-1)])
		}
	}
	t.Fatalf("golden file has %d lines, this build produced fewer", len(wantLines))
}

// parentDecodeAllocs is what one ingest.Decode pass over the 40 binary
// TraceBench logs allocated before the kernel was rebuilt (fresh gzip
// state, one read per field, two growing maps per record, a clone per
// digest). The fence is ROADMAP item 2's: at most 40% of it.
const parentDecodeAllocs = 154935

func decodeSuite(t testing.TB, suite []wire) {
	for _, w := range suite {
		if _, _, err := ingest.Decode(w.body); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
	}
}

func TestDecodeSuiteAllocFence(t *testing.T) {
	suite := suiteBinary(t)
	got := testing.AllocsPerRun(5, func() { decodeSuite(t, suite) })
	t.Logf("ingest.Decode over the TraceBench suite: %.0f allocs/pass (parent %d)", got, parentDecodeAllocs)
	if limit := 0.4 * parentDecodeAllocs; got > limit {
		t.Fatalf("ingest.Decode allocates %.0f per suite pass, fence is %.0f (40%% of the parent's %d)", got, limit, parentDecodeAllocs)
	}
}

// BenchmarkDecodeSuite: one op is the front door (inflate, decode,
// digest) over all 40 binary TraceBench logs.
func BenchmarkDecodeSuite(b *testing.B) {
	suite := suiteBinary(b)
	var n int64
	for _, w := range suite {
		n += int64(len(w.body))
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSuite(b, suite)
	}
}

// BenchmarkContentDigestSuite: one op digests all 40 decoded logs.
func BenchmarkContentDigestSuite(b *testing.B) {
	var logs []*darshan.Log
	for _, tr := range tracebench.Suite() {
		logs = append(logs, tr.Log())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range logs {
			if _, err := darshan.ContentDigest(l); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// suiteParserText renders the 40 TraceBench logs as darshan-parser text.
func suiteParserText(t testing.TB) []wire {
	t.Helper()
	var out []wire
	for _, tr := range tracebench.Suite() {
		text, err := darshan.TextString(tr.Log())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wire{tr.Name + "/text", []byte(text)})
	}
	return out
}

// suiteDXT is the scenario matrix's DXT text renderings.
func suiteDXT(t testing.TB) []wire {
	t.Helper()
	var out []wire
	for _, sc := range scenario.Matrix() {
		if sc.Modality == "dxt" {
			body, _ := sc.Build()
			out = append(out, wire{"scenario/" + sc.Name, body})
		}
	}
	return out
}

// What one ingest.Decode pass over each text suite allocated before the
// text and DXT kernel was rebuilt. A DXT trace was derived twice per pass,
// each derivation copying every event into two maps of slices, and every
// event line cost a strings.Fields slice: the fence is half of that.
// Parser text still pays a string and a strings.Fields slice per line
// (ARCHITECTURE layer 1, "Still allocated per line"), so its fence only
// holds that the record index added no allocations: the counter maps it
// now sizes up front pay for it.
const (
	parentParseTextAllocs = 189129
	parentDXTAllocs       = 106881
)

func TestTextSuitesAllocFence(t *testing.T) {
	for _, tc := range []struct {
		name          string
		suite         []wire
		parent, fence float64
	}{
		{"parser text", suiteParserText(t), parentParseTextAllocs, 1},
		{"DXT text", suiteDXT(t), parentDXTAllocs, 0.5},
	} {
		got := testing.AllocsPerRun(5, func() { decodeSuite(t, tc.suite) })
		t.Logf("ingest.Decode over the %s suite: %.0f allocs/pass (parent %.0f)", tc.name, got, tc.parent)
		if limit := tc.fence * tc.parent; got > limit {
			t.Errorf("ingest.Decode over the %s suite allocates %.0f per pass, fence is %.0f (%.0f%% of the parent's %.0f)",
				tc.name, got, limit, 100*tc.fence, tc.parent)
		}
	}
}

func benchmarkSuite(b *testing.B, suite []wire) {
	var n int64
	for _, w := range suite {
		n += int64(len(w.body))
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSuite(b, suite)
	}
}

// BenchmarkParseTextSuite: one op is the front door (line parse, digest)
// over all 40 TraceBench logs as darshan-parser text.
func BenchmarkParseTextSuite(b *testing.B) { benchmarkSuite(b, suiteParserText(b)) }

// BenchmarkDXTSuite: one op is the front door (line parse, derivation,
// digest) over the scenario matrix's DXT text renderings.
func BenchmarkDXTSuite(b *testing.B) { benchmarkSuite(b, suiteDXT(b)) }
