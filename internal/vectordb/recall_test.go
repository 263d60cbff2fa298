package vectordb_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ioagent/internal/knowledge"
	"ioagent/internal/vectordb"
)

// recallAtK scores the ANN index against the exact scan: the fraction of
// the exact top-k chunks the graph walk also surfaced, over all queries.
func recallAtK(t *testing.T, brute, ann *vectordb.Index, queries []string, k int) float64 {
	t.Helper()
	var got, want int
	for _, q := range queries {
		exact := brute.Search(q, k)
		approx := ann.Search(q, k)
		if len(approx) != len(exact) {
			t.Fatalf("query %q: ANN returned %d hits, exact %d", q, len(approx), len(exact))
		}
		keys := make(map[string]bool, len(exact))
		for _, h := range exact {
			keys[fmt.Sprintf("%s#%d", h.Chunk.DocKey, h.Chunk.Seq)] = true
		}
		for _, h := range approx {
			if keys[fmt.Sprintf("%s#%d", h.Chunk.DocKey, h.Chunk.Seq)] {
				got++
			}
		}
		want += len(exact)
	}
	return float64(got) / float64(want)
}

// TestHNSWRecallSynthetic property-tests recall@15 ≥ 0.95 against the
// exact scan over several deterministic synthetic corpora and the
// built-in expert corpus a node ships with — the brute index is the
// recall oracle the ANN index is held to.
func TestHNSWRecallSynthetic(t *testing.T) {
	type input struct {
		name    string
		docs    []vectordb.Document
		queries []string
	}
	var inputs []input
	for _, n := range []int{40, 120, 400} {
		docs := vectordb.SynthDocs(n, 60, uint64(n))
		inputs = append(inputs, input{fmt.Sprintf("synthetic-%d", n), docs, vectordb.SynthQueries(docs, 30)})
	}
	builtin := knowledge.Documents()
	inputs = append(inputs, input{"builtin", builtin, windowQueries(builtin, 40)})

	const k = 15
	for _, in := range inputs {
		brute, ann := vectordb.BuildPair(in.docs, vectordb.Options{ChunkSize: 512, Overlap: 20})
		if recall := recallAtK(t, brute, ann, in.queries, k); recall < 0.95 {
			t.Errorf("%s: recall@%d = %.3f, want >= 0.95", in.name, k, recall)
		}
	}
}

// TestHNSWAtScaleFence holds the ANN index to its reason to exist at the
// corpus scale a fleet-fed knowledge plane reaches: on 10 000 documents
// it keeps recall@15 ≥ 0.95 and its mean query time beats the exact
// scan's. The corpus size is the fence; a smaller one would let a slower
// graph walk pass. Skipped under -race, whose instrumentation makes the
// ~15 s build slower still and skews the latency comparison.
func TestHNSWAtScaleFence(t *testing.T) {
	if raceEnabled {
		t.Skip("latency fence; run without -race")
	}
	docs := scaleDocs(10000)
	queries := windowQueries(docs, 40)
	const k = 15
	brute, ann := vectordb.BuildPair(docs, vectordb.Options{ChunkSize: 512, Overlap: 20})
	recall := recallAtK(t, brute, ann, queries, k)
	if recall < 0.95 {
		t.Errorf("recall@%d = %.3f at %d docs, want >= 0.95", k, recall, len(docs))
	}
	// Interleave the engines per query so load elsewhere on the machine
	// slows both alike.
	var bruteTime, annTime time.Duration
	for _, q := range queries {
		start := time.Now()
		brute.Search(q, k)
		bruteTime += time.Since(start)
		start = time.Now()
		ann.Search(q, k)
		annTime += time.Since(start)
	}
	n := time.Duration(len(queries))
	if annTime >= bruteTime {
		t.Errorf("HNSW mean query %v did not beat the exact scan's %v at %d docs", annTime/n, bruteTime/n, len(docs))
	}
	t.Logf("%d docs: recall@%d %.3f, mean query HNSW %v, exact %v", len(docs), k, recall, annTime/n, bruteTime/n)
}

// scaleVocab is plausible HPC I/O diagnosis prose, so synthetic
// embeddings spread the way real corpus text does.
var scaleVocab = strings.Fields(`
small write aggregation bandwidth stripe alignment metadata server load
collective buffering contiguous access pattern random sequential readahead
burst buffer drain checkpoint stall lustre gpfs ost mds rank imbalance
straggler shared file per process posix mpiio hdf5 netcdf chunk cache
eviction prefetch write behind flush sync barrier contention lock revoke
extent size quota inode scan directory traversal open close latency
throughput iops alignment boundary page fault mmap direct io buffered
`)

// scaleDocs builds n deterministic single-chunk documents of 40 words.
func scaleDocs(n int) []vectordb.Document {
	rng := rand.New(rand.NewSource(42))
	docs := make([]vectordb.Document, n)
	for i := range docs {
		words := make([]string, 40)
		for w := range words {
			words[w] = scaleVocab[rng.Intn(len(scaleVocab))]
		}
		docs[i] = vectordb.Document{
			Key:   fmt.Sprintf("syn%05d", i),
			Title: fmt.Sprintf("Synthetic finding %d", i),
			Text:  strings.Join(words, " "),
		}
	}
	return docs
}

// windowQueries derives n deterministic queries by sampling 8-word
// windows out of the corpus itself, so every query has relevant
// neighbors.
func windowQueries(docs []vectordb.Document, n int) []string {
	rng := rand.New(rand.NewSource(7))
	qs := make([]string, n)
	for i := range qs {
		words := strings.Fields(docs[rng.Intn(len(docs))].Text)
		if len(words) > 8 {
			start := rng.Intn(len(words) - 8)
			words = words[start : start+8]
		}
		qs[i] = strings.Join(words, " ")
	}
	return qs
}
