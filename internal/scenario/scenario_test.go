package scenario

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/drishti"
	"ioagent/internal/dxt"
	"ioagent/internal/eval"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/fleettest"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/node"
	"ioagent/internal/fleet/router"
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
// label set — the machine-checkable ground truth diagnoses are scored
// against. A drishti or derivation change that shifts any set
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
// workload's data-path labels. And a node with semantic reuse on that has
// diagnosed the tiny-write workload's counter log must diagnose its DXT
// rendering fresh over HTTP: neither a similarity hit (the cross-modality
// fence) nor an exact hit (the renderings have distinct digests). This
// pins the modality contract ARCHITECTURE.md layer 10 documents.
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

	// Thresholds this low let any candidate through the similarity
	// prefilter and the gate, so only the modality fence stands between
	// the DXT job and reuse.
	n := fleettest.Start(t, node.Config{Fleet: fleet.Config{
		SemCache:      true,
		SimThreshold:  0.0001,
		GateThreshold: 0.0001,
	}})
	c := client.New(n.URL())
	defer c.Close()
	for _, name := range []string{"tiny-unaligned-writes", "tiny-unaligned-writes-dxt"} {
		wire, _ := byName(t, name).Build()
		d, err := c.SubmitAndWait(context.Background(), api.SubmitRequest{Trace: wire})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.SimilarityHit || d.CacheHit {
			t.Fatalf("%s reused a diagnosis (similarity hit %v from %.12s, exact hit %v); each modality must be diagnosed fresh",
				name, d.SimilarityHit, d.SourceDigest, d.CacheHit)
		}
	}
}

// TestMatrixDiagnosisScores: a diagnosis of every scenario must score at
// or above its committed baseline on the eval.ScoreDiagnosis scale, from
// two inputs: the agent alone under the deterministic sim LLM, and a
// router over two nodes with semantic reuse and the gpt-4o-mini → gpt-4o
// tier ladder on, fed the matrix as a client would (mixed lanes and
// tenants). The cluster then takes one near-duplicate of every scenario
// (a new digest, the same I/O profile), concurrently, and each must
// complete.
func TestMatrixDiagnosisScores(t *testing.T) {
	sim := llm.NewSim()
	cluster := startCluster(t)
	submit := func(i int, wire []byte) (api.Diagnosis, error) {
		lane := api.LaneInteractive
		if i%3 == 0 {
			lane = api.LaneBatch
		}
		return cluster.SubmitAndWait(context.Background(), api.SubmitRequest{
			Trace: wire, Lane: lane, Tenant: fmt.Sprintf("tenant-%d", i%3),
		})
	}
	for i, sc := range Matrix() {
		t.Run(sc.Name, func(t *testing.T) {
			wire, log := sc.Build()
			res, err := ioagent.New(sim, ioagent.Options{}).Diagnose(log)
			if err != nil {
				t.Fatalf("diagnose: %v", err)
			}
			d, err := submit(i, wire)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			for _, in := range []struct{ name, text string }{{"agent", res.Text}, {"cluster", d.Text}} {
				score, err := eval.ScoreDiagnosis(sim, "", sc.Expected, in.text)
				if err != nil {
					t.Fatalf("score %s: %v", in.name, err)
				}
				if score < sc.Baseline {
					t.Errorf("%s diagnosis score %.3f below committed baseline %.3f", in.name, score, sc.Baseline)
				}
				t.Logf("%s score %.3f, baseline %.3f", in.name, score, sc.Baseline)
			}
		})
	}

	var wg sync.WaitGroup
	for i, sc := range Matrix() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := submit(i, nearDuplicate(t, sc)); err != nil {
				t.Errorf("near-duplicate of %s: %v", sc.Name, err)
			}
		}()
	}
	wg.Wait()
}

// startCluster boots two nodes with semantic reuse and the tier ladder
// behind a digest-sharding router, and returns a client of the router.
func startCluster(t *testing.T) *client.Client {
	t.Helper()
	var urls []string
	for _, id := range []string{"n1", "n2"} {
		n := fleettest.Start(t, node.Config{Fleet: fleet.Config{
			NodeID:     id,
			SemCache:   true,
			TierModels: []string{llm.GPT4oMini, llm.GPT4o},
		}})
		urls = append(urls, n.URL())
	}
	rt, err := router.New(router.Config{Members: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	c := client.New(front.URL)
	t.Cleanup(c.Close)
	return c
}

// nearDuplicate renders a scenario with a new content digest and the same
// I/O profile, in the scenario's own modality.
func nearDuplicate(t *testing.T, sc Scenario) []byte {
	_, log := sc.Build()
	if sc.Modality == "dxt" {
		// Comments do not survive canonicalization, so a metadata line
		// would collapse to the same digest; shift every timestamp by a
		// multiple of the text-precision quantum instead.
		shifted := &dxt.Trace{NProcs: log.DXT.NProcs, Events: append([]dxt.Event(nil), log.DXT.Events...)}
		for i := range shifted.Events {
			shifted.Events[i].Start += 2e-6
			shifted.Events[i].End += 2e-6
		}
		return []byte(dxt.TextString(shifted))
	}
	text, err := darshan.TextString(log)
	if err != nil {
		t.Errorf("render %s: %v", sc.Name, err)
	}
	return []byte(text + "# metadata: variant = " + sc.Name + "-v0\n")
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
