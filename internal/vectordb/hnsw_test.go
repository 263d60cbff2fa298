package vectordb

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// synthVocab is the word pool for synthetic documents: I/O-domain terms so
// embeddings carry the same kind of signal the real corpus does.
var synthVocab = []string{
	"write", "read", "bandwidth", "stripe", "metadata", "collective",
	"aggregate", "request", "alignment", "lustre", "server", "latency",
	"buffer", "cache", "shared", "file", "lock", "contention", "small",
	"large", "sequential", "random", "rank", "straggler", "burst",
	"checkpoint", "throughput", "offset", "block", "transfer", "storage",
	"parallel", "posix", "mpiio", "hdf5", "daemon", "journal", "queue",
}

// synthDocs builds n deterministic synthetic documents of w words each,
// using a small LCG so the test never touches math/rand's global state.
func synthDocs(n, w int, seed uint64) []Document {
	state := seed*6364136223846793005 + 1442695040888963407
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	docs := make([]Document, n)
	for i := range docs {
		words := make([]string, w)
		for j := range words {
			words[j] = synthVocab[next()%uint64(len(synthVocab))]
		}
		docs[i] = Document{
			Key:   fmt.Sprintf("synth%04d", i),
			Title: fmt.Sprintf("Synthetic %d", i),
			Text:  strings.Join(words, " "),
		}
	}
	return docs
}

// synthQueries derives deterministic queries by sampling document prefixes
// and shuffling in vocabulary terms, so queries are near but not equal to
// indexed text.
func synthQueries(docs []Document, n int) []string {
	qs := make([]string, 0, n)
	for i := 0; len(qs) < n; i++ {
		words := strings.Fields(docs[i%len(docs)].Text)
		take := 8 + i%5
		if take > len(words) {
			take = len(words)
		}
		qs = append(qs, strings.Join(words[:take], " ")+" "+synthVocab[i%len(synthVocab)])
	}
	return qs
}

func buildPair(docs []Document, opts Options) (brute, ann *Index) {
	brute = New(opts)
	annOpts := opts
	annOpts.ANN = true
	ann = New(annOpts)
	for _, d := range docs {
		brute.Add(d)
		ann.Add(d)
	}
	return brute, ann
}

// TestHNSWDeterministicBuild pins that two indexes fed the same documents
// answer identically — level assignment is hashed, not drawn.
func TestHNSWDeterministicBuild(t *testing.T) {
	docs := synthDocs(80, 40, 7)
	_, a := buildPair(docs, Options{})
	_, b := buildPair(docs, Options{})
	for _, q := range synthQueries(docs, 10) {
		ha, hb := a.Search(q, 10), b.Search(q, 10)
		if len(ha) != len(hb) {
			t.Fatalf("result lengths differ: %d vs %d", len(ha), len(hb))
		}
		for i := range ha {
			if ha[i] != hb[i] {
				t.Fatalf("rank %d differs: %+v vs %+v", i, ha[i], hb[i])
			}
		}
	}
}

// TestHNSWSaveLoadGraph round-trips an ANN index and checks the loaded
// copy both preserves results and keeps answering from the graph.
func TestHNSWSaveLoadGraph(t *testing.T) {
	docs := synthDocs(60, 40, 3)
	_, ann := buildPair(docs, Options{})
	var buf bytes.Buffer
	if err := ann.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !back.ANN() {
		t.Fatal("loaded index lost its ANN graph")
	}
	for _, q := range synthQueries(docs, 8) {
		a, b := ann.Search(q, 5), back.Search(q, 5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %q rank %d differs after round trip", q, i)
			}
		}
	}
	if st := back.Stats(); st.ANNQueries == 0 {
		t.Errorf("loaded index answered no queries from the graph: %+v", st)
	}
	// A file with a mangled graph must rebuild, not fail or mis-answer.
	var buf2 bytes.Buffer
	if err := ann.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	mangled := bytes.Replace(buf2.Bytes(), []byte(`"entry":`), []byte(`"entry":999999,"x":`), 1)
	rebuilt, err := Load(bytes.NewReader(mangled))
	if err != nil {
		t.Fatalf("Load with mangled graph: %v", err)
	}
	if !rebuilt.ANN() {
		t.Error("mangled graph should be rebuilt, not dropped")
	}
	a, b := ann.Search("stripe aligned write bandwidth", 5), rebuilt.Search("stripe aligned write bandwidth", 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rebuilt graph diverges at rank %d", i)
		}
	}
}

// TestHNSWRemoveRebuild checks Remove keeps the graph consistent with the
// surviving chunks.
func TestHNSWRemoveRebuild(t *testing.T) {
	docs := synthDocs(50, 40, 11)
	brute, ann := buildPair(docs, Options{})
	for _, key := range []string{"synth0003", "synth0017", "synth0042"} {
		if brute.Remove(key) == 0 {
			t.Fatalf("brute index did not contain %s", key)
		}
		if ann.Remove(key) == 0 {
			t.Fatalf("ANN index did not contain %s", key)
		}
	}
	for _, q := range synthQueries(docs, 10) {
		exact := brute.Search(q, 10)
		approx := ann.Search(q, 10)
		for _, h := range approx {
			switch h.Chunk.DocKey {
			case "synth0003", "synth0017", "synth0042":
				t.Fatalf("removed doc %s still retrievable from ANN index", h.Chunk.DocKey)
			}
		}
		if len(approx) != len(exact) {
			t.Fatalf("lengths differ after removal: %d vs %d", len(approx), len(exact))
		}
	}
}

// TestRemoveSaveLoadSearchInterleaved drives Remove / Save / Load / Search
// interleavings under concurrent readers; run under -race in CI.
func TestRemoveSaveLoadSearchInterleaved(t *testing.T) {
	for _, annOn := range []bool{false, true} {
		docs := synthDocs(40, 30, 5)
		ix := New(Options{ANN: annOn})
		for _, d := range docs {
			ix.Add(d)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				qs := synthQueries(docs, 6)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					hits := ix.Search(qs[i%len(qs)], 5)
					for _, h := range hits {
						if h.Chunk.DocKey == "" {
							t.Error("empty hit under concurrency")
							return
						}
					}
				}
			}(r)
		}
		var loaded *Index
		for i := 0; i < 10; i++ {
			ix.Remove(fmt.Sprintf("synth%04d", i))
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatalf("Save during concurrency: %v", err)
			}
			back, err := Load(&buf)
			if err != nil {
				t.Fatalf("Load during concurrency: %v", err)
			}
			loaded = back
			if got := back.Search("stripe write bandwidth", 3); len(got) == 0 {
				t.Fatal("loaded index answered no hits")
			}
		}
		close(stop)
		wg.Wait()
		if loaded.Docs() != 30 {
			t.Errorf("ann=%v: %d docs after 10 removals, want 30", annOn, loaded.Docs())
		}
	}
}
