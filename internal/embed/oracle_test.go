package embed

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// The oracle: Tokenize and Embed exactly as they were before the kernel
// was rebuilt (a strings.Builder per token, a map and a string per term, a
// fresh hash.Hash64 per term), kept verbatim so the kernel is checked
// against it instead of trusted. Vectors are compared with ==: Embed's
// contract is bit-determinism, not closeness.

func oracleTokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if stopwords[tok] || oracleIsNumeric(tok) {
			return
		}
		tokens = append(tokens, tok)
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

func oracleIsNumeric(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

func oracleEmbed(text string) Vector {
	var v Vector
	tokens := oracleTokenize(text)
	counts := make(map[string]int, len(tokens)*2)
	order := make([]string, 0, len(tokens)*2)
	add := func(term string) {
		if counts[term] == 0 {
			order = append(order, term)
		}
		counts[term]++
	}
	for i, t := range tokens {
		add(t)
		if i+1 < len(tokens) {
			add(t + "_" + tokens[i+1])
		}
	}
	for _, term := range order {
		n := counts[term]
		w := float32(1 + math.Log(float64(n)))
		if strings.Contains(term, "_") {
			w *= 0.6 // bigrams refine, unigrams dominate
		}
		idx, sign := oracleHashTerm(term)
		v[idx] += sign * w
	}
	return oracleNormalize(v)
}

func oracleHashTerm(term string) (idx int, sign float32) {
	h := fnv.New64a()
	h.Write([]byte(term))
	s := h.Sum64()
	idx = int(s % Dim)
	if (s>>32)&1 == 1 {
		return idx, -1
	}
	return idx, 1
}

func oracleNormalize(v Vector) Vector {
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if norm == 0 {
		return v
	}
	inv := float32(1 / math.Sqrt(norm))
	for i := range v {
		v[i] *= inv
	}
	return v
}

// checkAgainstOracle fails t when the kernel and the oracle disagree on
// text in any token or any bit of the vector.
func checkAgainstOracle(t *testing.T, text string) {
	t.Helper()
	got, want := Tokenize(text), oracleTokenize(text)
	if len(got) != len(want) {
		t.Fatalf("Tokenize(%q) = %q, oracle %q", text, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Tokenize(%q)[%d] = %q, oracle %q", text, i, got[i], want[i])
		}
	}
	if gv, wv := Embed(text), oracleEmbed(text); gv != wv {
		for i := range gv {
			if gv[i] != wv[i] {
				t.Fatalf("Embed(%q)[%d] = %x, oracle %x", text, i, math.Float32bits(gv[i]), math.Float32bits(wv[i]))
			}
		}
	}
}

// oracleSeeds are the hand-picked differential cases: stopword, number
// and bigram repeats, non-ASCII letters and digits, case mappings that
// change the encoded length or land in ASCII, invalid UTF-8, and texts
// with no usable term at all.
var oracleSeeds = []string{
	"",
	"the of and to",
	"123 456 7890",
	"the 42 of 7",
	"small write small write small write requests",
	"a_b a_b b_a",
	"write the write of write 12 write",
	"Ünïcode ǅ ٣٤ 123abc a_b",
	"İs İT ΣΑΣ straße K Ⱥⱥ ǅǆ",
	"abc\xffdef \xc3\x28 \xe2\x82 tail",
	"x",
	"I/O I/O i/o I/O",
	"85% of write requests transfer fewer than 1 MB, which classifies them as small writes.",
	"POSIX_BYTES_WRITTEN\t-1\t1048576 /scratch/out.dat lustre",
}

func FuzzEmbedMatchesOracle(f *testing.F) {
	for _, s := range oracleSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkAgainstOracle(t, text)
	})
}

// TestEmbedMatchesOracleRandom: 20 000 seeded random texts over a small
// alphabet (so terms repeat, collide in a dimension and form repeated
// bigrams) with stopwords, numbers, separators, case and non-ASCII runes
// mixed in.
func TestEmbedMatchesOracleRandom(t *testing.T) {
	words := []string{
		"write", "read", "small", "the", "of", "is", "12", "4096", "I", "O",
		"MPI", "collective", "stripe", "Lustre", "x", "y", "z", "Ünï", "ǅ",
		"٣٤", "İs", "9a", "a9", "K", "Straße", "metadata", "rank", "WRITE",
	}
	seps := []string{" ", " ", " ", "_", "/", ", ", ".\n", "\t", "-", "\xff", "  ", "—"}
	rng := rand.New(rand.NewSource(21))
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		b.Reset()
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteString(seps[rng.Intn(len(seps))])
		}
		// A tail of raw bytes: arbitrary, often invalid, UTF-8.
		for n := rng.Intn(6); n > 0; n-- {
			b.WriteByte(byte(rng.Intn(256)))
		}
		checkAgainstOracle(t, b.String())
	}
}
