package scenario

import (
	"bytes"
	"math/rand"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/drishti"
	"ioagent/internal/dxt"
	"ioagent/internal/eval"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/ioagent"
	"ioagent/internal/issue"
	"ioagent/internal/llm"
)

// TestMatrixDeterministic: Build is a pure function — two renderings of a
// scenario are byte-identical and share one content address.
func TestMatrixDeterministic(t *testing.T) {
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			w1, l1 := sc.Build()
			w2, l2 := sc.Build()
			if !bytes.Equal(w1, w2) {
				t.Fatalf("wire bytes differ across builds (%d vs %d bytes)", len(w1), len(w2))
			}
			d1, err := darshan.ContentDigest(l1)
			if err != nil {
				t.Fatalf("digest: %v", err)
			}
			d2, err := darshan.ContentDigest(l2)
			if err != nil {
				t.Fatalf("digest: %v", err)
			}
			if d1 != d2 {
				t.Fatalf("content digests differ across builds: %s vs %s", d1, d2)
			}
		})
	}
}

// TestMatrixIngestDigest: the wire bytes, streamed through the fleet's
// chunked ingest parser at adversarial chunk sizes, must land on exactly
// the content address of the scenario's decoded log. This is the
// end-to-end statement that ingest sniffing (binary vs darshan text vs
// DXT text) routes each modality to the right parser and that digests
// are rendering-canonical.
func TestMatrixIngestDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			wire, log := sc.Build()
			want, err := darshan.ContentDigest(log)
			if err != nil {
				t.Fatalf("digest: %v", err)
			}
			for trial := 0; trial < 3; trial++ {
				p := ingest.NewParser(int64(len(wire)) + 1024)
				for off := 0; off < len(wire); {
					n := 1 + rng.Intn(257)
					if off+n > len(wire) {
						n = len(wire) - off
					}
					if _, err := p.Write(wire[off : off+n]); err != nil {
						t.Fatalf("chunked write at %d: %v", off, err)
					}
					off += n
				}
				_, got, err := p.Finish()
				if err != nil {
					t.Fatalf("finish: %v", err)
				}
				if got != want {
					t.Fatalf("ingest digest %s != log digest %s", got, want)
				}
				if sc.Modality == "dxt" && !p.Stats().DXT {
					t.Fatalf("ingest did not sniff the wire as DXT")
				}
			}
		})
	}
}

// TestMatrixLabels: every scenario triggers exactly its committed drishti
// label set — the machine-checkable ground truth fleetbench scores
// diagnoses against. A drishti or derivation change that shifts any set
// fails here, which is the point: the matrix is the regression fence.
func TestMatrixLabels(t *testing.T) {
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			_, log := sc.Build()
			got := drishti.Analyze(log).Labels()
			if !setsEqual(got, sc.Expected) {
				t.Fatalf("drishti labels = %v, committed expected = %v",
					got.Sorted(), sc.Expected.Sorted())
			}
		})
	}
}

// TestMatrixModalityContract: the darshan and DXT renderings of the
// metadata storm must disagree on HighMetadataLoad — metadata operations
// are invisible in the per-operation stream — while agreeing on the
// workload's data-path labels. This pins the modality contract
// ARCHITECTURE.md layer 10 documents.
func TestMatrixModalityContract(t *testing.T) {
	darshanSide := byName(t, "metadata-storm").Expected
	dxtSide := byName(t, "metadata-storm-dxt").Expected
	if !darshanSide[issue.HighMetadataLoad] {
		t.Fatal("darshan metadata storm must expect High Metadata Load")
	}
	if dxtSide[issue.HighMetadataLoad] {
		t.Fatal("DXT metadata storm must NOT expect High Metadata Load: metadata ops are invisible in DXT")
	}
	if !dxtSide[issue.SmallWrites] {
		t.Fatal("DXT metadata storm must still expect the data-path labels")
	}
}

// TestMatrixDiagnosisScores: a diagnosis produced by the agent under the
// deterministic sim LLM must score at or above each scenario's committed
// baseline on the eval.ScoreDiagnosis scale.
func TestMatrixDiagnosisScores(t *testing.T) {
	client := llm.NewSim()
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			_, log := sc.Build()
			agent := ioagent.New(client, ioagent.Options{})
			res, err := agent.Diagnose(log)
			if err != nil {
				t.Fatalf("diagnose: %v", err)
			}
			score, err := eval.ScoreDiagnosis(client, "", sc.Expected, res.Text)
			if err != nil {
				t.Fatalf("score: %v", err)
			}
			if score < sc.Baseline {
				t.Fatalf("diagnosis score %.3f below committed baseline %.3f", score, sc.Baseline)
			}
		})
	}
}

// TestDXTRenderingCanonicalDigest: for every DXT scenario, three distinct
// renderings of the trace — the text wire, the in-memory derived log, and
// a binary encode/decode round trip — must share one content address.
func TestDXTRenderingCanonicalDigest(t *testing.T) {
	for _, sc := range Matrix() {
		if sc.Modality != "dxt" {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			wire, log := sc.Build()
			want, err := darshan.ContentDigest(log)
			if err != nil {
				t.Fatalf("digest: %v", err)
			}

			// Text rendering → parse → derive.
			tr, err := dxt.ParseText(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("parse text wire: %v", err)
			}
			fromText, err := darshan.ContentDigest(darshan.FromDXT(tr))
			if err != nil {
				t.Fatalf("digest from text: %v", err)
			}
			if fromText != want {
				t.Fatalf("text-rendering digest %s != log digest %s", fromText, want)
			}

			// Binary rendering (v3 section with the event stream) → decode.
			var buf bytes.Buffer
			if err := darshan.Encode(&buf, log); err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := darshan.Decode(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if dec.DXT == nil {
				t.Fatal("binary round trip dropped the DXT event stream")
			}
			fromBinary, err := darshan.ContentDigest(dec)
			if err != nil {
				t.Fatalf("digest from binary: %v", err)
			}
			if fromBinary != want {
				t.Fatalf("binary-rendering digest %s != log digest %s", fromBinary, want)
			}
		})
	}
}

func byName(t *testing.T, name string) Scenario {
	t.Helper()
	for _, sc := range Matrix() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("no scenario %q in the matrix", name)
	return Scenario{}
}

func setsEqual(a, b issue.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		if !b[l] {
			return false
		}
	}
	return true
}
