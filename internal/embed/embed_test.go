package embed

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	toks := Tokenize("The application wrote 49152 small I/O requests to /scratch!")
	want := map[string]bool{"application": true, "wrote": true, "small": true,
		"i": true, "o": true, "requests": true, "scratch": true}
	for _, tok := range toks {
		if !want[tok] {
			t.Errorf("unexpected token %q", tok)
		}
	}
	for _, tok := range toks {
		if tok == "the" || tok == "to" || tok == "49152" {
			t.Errorf("stopword/number %q not filtered", tok)
		}
	}
}

func TestEmbedNormalized(t *testing.T) {
	v := Embed("collective I/O merges small requests into large transfers")
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-4 {
		t.Errorf("embedding norm^2 = %g, want 1", norm)
	}
}

func TestEmbedEmpty(t *testing.T) {
	v := Embed("")
	if Cosine(v, v) != 0 {
		t.Error("empty text should embed to the zero vector")
	}
}

func TestSelfSimilarity(t *testing.T) {
	text := "small write requests degrade bandwidth on parallel file systems"
	if got := Cosine(Embed(text), Embed(text)); math.Abs(got-1) > 1e-4 {
		t.Errorf("self cosine = %g, want 1", got)
	}
}

func TestTopicalLocality(t *testing.T) {
	frag := "85% of write requests transfer fewer than 1 MB, which classifies them as small writes; aggregating writes would improve bandwidth"
	smallDoc := "small write requests amplify per-operation latency; applications should aggregate small writes into larger buffers before flushing to recover write bandwidth"
	metaDoc := "file create open stat and unlink operations serialize at the metadata server; metadata-bound jobs should aggregate files into containers"

	simSmall := Cosine(Embed(frag), Embed(smallDoc))
	simMeta := Cosine(Embed(frag), Embed(metaDoc))
	if simSmall <= simMeta {
		t.Errorf("small-write fragment should be closer to small-write doc: %g vs %g", simSmall, simMeta)
	}
}

func TestNaturalLanguageAlignsBetterThanJSON(t *testing.T) {
	// The paper's Fig. 3 rationale: the NL rendition of a summary matches
	// literature better than the raw JSON.
	jsonFrag := `{"module":"POSIX","category":"io_size","small_write_fraction":0.85,"write_hist_0_100":0.85}`
	nlFrag := "85% of write requests transfer fewer than 1 MB, which classifies them as small writes. The value of 0.85 in the 0 to 100 bin indicates that 85% of the write operations fall within the 0 bytes to 100 bytes range."
	doc := "jobs whose write request sizes fall predominantly under 100 KB achieve less than 15 percent of attainable bandwidth; small write requests amplify per-operation latency; aggregate small writes into buffers before flushing"

	simJSON := Cosine(Embed(jsonFrag), Embed(doc))
	simNL := Cosine(Embed(nlFrag), Embed(doc))
	if simNL <= simJSON {
		t.Errorf("NL fragment should retrieve better than JSON: NL %g vs JSON %g", simNL, simJSON)
	}
}

func TestCosineDeterministic(t *testing.T) {
	f := func(a, b string) bool {
		return Cosine(Embed(a), Embed(b)) == Cosine(Embed(a), Embed(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCosineBounded(t *testing.T) {
	f := func(a, b string) bool {
		c := Cosine(Embed(a), Embed(b))
		return c >= -1.0001 && c <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// chunk300 is a knowledge-chunk-sized text (300 bytes), the size Embed
// sees on the retrieval and self-reflection paths.
const chunk300 = "Small write requests amplify per-operation latency on parallel file systems. " +
	"Applications should aggregate small writes into larger buffers before flushing, " +
	"or use collective MPI-IO so that aggregator ranks merge requests into stripe-aligned transfers; " +
	"the write bandwidth recovers once requests exceed 1 MB."

func TestEmbedZeroAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under -race")
	}
	Embed(chunk300) // warm the pool
	if got := testing.AllocsPerRun(200, func() { Embed(chunk300) }); got != 0 {
		t.Fatalf("Embed allocates %.0f times per call on a warm pool, want 0", got)
	}
}

// TestEmbedConcurrent: pooled scratch must never alias a returned Vector
// or be shared between two calls in flight. Run under -race in CI.
func TestEmbedConcurrent(t *testing.T) {
	texts := append([]string{chunk300, strings.Repeat(chunk300, 300)}, oracleSeeds...)
	want := make([]Vector, len(texts))
	for i, text := range texts {
		want[i] = oracleEmbed(text)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held []Vector
			for round := 0; round < 50; round++ {
				i := (g + round) % len(texts)
				held = append(held, Embed(texts[i]))
				// Vectors returned earlier must survive later calls.
				for j, v := range held {
					if v != want[(g+j)%len(texts)] {
						t.Errorf("goroutine %d: vector %d changed after a later Embed", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCountTableVerifiesBytes: two different terms that present the same
// 64-bit hash stay two terms, and the same bytes at another offset are the
// same term.
func TestCountTableVerifiesBytes(t *testing.T) {
	var s scratch
	buf := []byte("alpha_beta_alpha")
	s.reset(len(buf))
	s.add(buf, 0, 5, 7, false)
	s.add(buf, 6, 10, 7, false)  // same hash, other bytes
	s.add(buf, 11, 16, 7, false) // same hash, same bytes as the first
	if len(s.terms) != 2 || s.terms[0].count != 2 || s.terms[1].count != 1 {
		t.Fatalf("terms = %+v, want alpha x2 then beta x1", s.terms)
	}
}

var sinkVector Vector

func BenchmarkEmbed(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(chunk300)))
	for i := 0; i < b.N; i++ {
		sinkVector = Embed(chunk300)
	}
}

// TestMaxStopword: the tokenizer consults the stopword map only for tokens
// of at most maxStopword bytes, so the constant must cover the list.
func TestMaxStopword(t *testing.T) {
	longest := 0
	for w := range stopwords {
		longest = max(longest, len(w))
	}
	if longest != maxStopword {
		t.Fatalf("longest stopword has %d bytes, maxStopword is %d", longest, maxStopword)
	}
}
