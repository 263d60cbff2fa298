// Package embed provides deterministic text embeddings, standing in for the
// OpenAI text-embedding-3-large model the paper uses.
//
// The embedding is a hashed bag of unigrams and bigrams: each term is hashed
// into a fixed-dimension vector with a signed weight, term frequencies are
// dampened sub-linearly, and the result is L2-normalized. This preserves the
// one property retrieval needs — texts about the same topic land near each
// other under cosine similarity — while being fully reproducible offline.
package embed

import (
	"math"
	"math/bits"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Dim is the embedding dimensionality.
const Dim = 384

// Vector is a Dim-dimensional embedding.
type Vector [Dim]float32

// stopwords are excluded from the term stream; they carry no topical signal
// and would otherwise dominate similarity between any two English texts.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true,
	"have": true, "in": true, "is": true, "it": true, "its": true,
	"of": true, "on": true, "or": true, "that": true, "the": true,
	"this": true, "to": true, "was": true, "were": true, "with": true,
	"which": true, "when": true, "where": true, "will": true, "can": true,
	"such": true, "these": true, "those": true, "than": true, "then": true,
	"into": true, "over": true, "per": true, "we": true, "our": true,
}

// FNV-64a, the term hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// maxStopword is the byte length of the longest stopword.
const maxStopword = 5

// tokenizer is the one tokenizer behind Embed: a single pass
// over text that lower-cases as it goes and hashes each token while
// reading it. Kept tokens are laid out in buf joined by '_', so the bytes
// of token i are buf[start:end] and the bytes of the bigram term
// "tok_{i-1}_tok_i" are buf[prevStart:end], with no string built for
// either.
type tokenizer struct {
	text string
	pos  int
	buf  []byte

	// The token the last next() returned, 1-based count in n.
	n                     int
	prevStart, start, end int
	hash                  uint64 // FNV-64a of buf[start:end]
	joined                uint64 // FNV-64a of buf[prevStart:end]; valid when n > 1
}

// next advances to the next kept token and reports whether there is one.
func (t *tokenizer) next() bool {
	text := t.text
	tokStart := len(t.buf)
	uni := uint64(fnvOffset64)
	// The bigram hash extends the previous token's hash over "_" and this
	// token's bytes instead of rehashing the previous token.
	bi := (t.hash ^ '_') * fnvPrime64
	numeric := true
	// One step past the end stands in for a final separator.
	for i := t.pos; i <= len(text); {
		lower, size := rune(-1), 1
		if i < len(text) {
			switch c := text[i]; {
			case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
				lower = rune(c)
			case c >= 'A' && c <= 'Z':
				lower = rune(c) + ('a' - 'A')
			case c >= utf8.RuneSelf:
				// Invalid UTF-8 decodes to RuneError, width 1: a separator,
				// exactly as ranging over the string would see it.
				var r rune
				r, size = utf8.DecodeRuneInString(text[i:])
				if unicode.IsLetter(r) || unicode.IsDigit(r) {
					lower = unicode.ToLower(r)
				}
			}
		}
		i += size
		if lower >= 0 {
			if lower < '0' || lower > '9' {
				numeric = false
			}
			at := len(t.buf)
			t.buf = utf8.AppendRune(t.buf, lower)
			for _, b := range t.buf[at:] {
				uni = (uni ^ uint64(b)) * fnvPrime64
				bi = (bi ^ uint64(b)) * fnvPrime64
			}
			continue
		}
		tok := t.buf[tokStart:]
		if len(tok) == 0 {
			continue
		}
		if numeric || (len(tok) <= maxStopword && stopwords[string(tok)]) {
			t.buf = t.buf[:tokStart]
			uni, bi, numeric = fnvOffset64, (t.hash^'_')*fnvPrime64, true
			continue
		}
		t.n++
		t.prevStart, t.start, t.end = t.start, tokStart, len(t.buf)
		t.hash, t.joined = uni, bi
		t.buf = append(t.buf, '_')
		t.pos = i
		return true
	}
	t.pos = len(text) + 1
	return false
}

// term is one distinct unigram or bigram of the text being embedded.
type term struct {
	hash       uint64
	start, end int // its bytes in the tokenizer's buf
	count      int
	bigram     bool
}

// scratch is the per-call working set of Embed, pooled so a warm Embed
// allocates nothing. Nothing in it outlives the call: the returned Vector
// is a value, built on the caller's stack.
type scratch struct {
	buf   []byte  // the tokenizer's token bytes
	terms []term  // in first-occurrence order
	table []int32 // open-addressed by hash: index into terms plus one, 0 is empty
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledText bounds what the pool retains: a scratch grown for a longer
// text is left to the collector instead of pinning its tables.
const maxPooledText = 64 << 10

// reset readies s for a text of n bytes. A token takes at least one byte
// and one separator, so the text has at most n distinct terms and a table
// of more than n slots never fills.
func (s *scratch) reset(n int) {
	size := 1 << bits.Len(uint(n))
	if cap(s.table) < size {
		s.table = make([]int32, size)
	}
	s.table = s.table[:size]
	clear(s.table)
	s.terms = s.terms[:0]
}

// add counts one occurrence of the term buf[start:end]. Equal hashes are
// not taken for equal terms: the bytes decide, as the map this replaces
// did, so a 64-bit collision cannot merge two terms.
func (s *scratch) add(buf []byte, start, end int, hash uint64, bigram bool) {
	mask := len(s.table) - 1
	for slot := int(hash) & mask; ; slot = (slot + 1) & mask {
		e := s.table[slot]
		if e == 0 {
			s.terms = append(s.terms, term{hash: hash, start: start, end: end, count: 1, bigram: bigram})
			s.table[slot] = int32(len(s.terms))
			return
		}
		t := &s.terms[e-1]
		if t.hash == hash && string(buf[t.start:t.end]) == string(buf[start:end]) {
			t.count++
			return
		}
	}
}

// Embed computes the embedding of text. The zero vector is returned for
// texts with no usable terms.
//
// Accumulation runs in first-occurrence term order, never table order: when
// two terms hash to the same dimension, float32 addition order changes the
// low bits, and everything downstream (Save/Load score stability, the ANN
// index's exact-fallback equality) requires Embed to be bit-deterministic.
func Embed(text string) Vector {
	s := scratchPool.Get().(*scratch)
	s.reset(len(text))
	tk := tokenizer{text: text, buf: s.buf[:0]}
	for tk.next() {
		if tk.n > 1 {
			s.add(tk.buf, tk.prevStart, tk.end, tk.joined, true)
		}
		s.add(tk.buf, tk.start, tk.end, tk.hash, false)
	}
	var v Vector
	for i := range s.terms {
		t := &s.terms[i]
		w := float32(1)
		if t.count > 1 {
			w = float32(1 + math.Log(float64(t.count)))
		}
		if t.bigram {
			w *= 0.6 // bigrams refine, unigrams dominate
		}
		sign := float32(1)
		if (t.hash>>32)&1 == 1 {
			sign = -1
		}
		v[t.hash%Dim] += sign * w
	}
	s.buf = tk.buf
	if len(text) <= maxPooledText {
		scratchPool.Put(s)
	}
	return normalize(v)
}

func normalize(v Vector) Vector {
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

// Cosine returns the cosine similarity of two embeddings in [-1, 1]. Both
// inputs are expected to be normalized (as produced by Embed); zero vectors
// yield 0.
func Cosine(a, b Vector) float64 {
	return Dot(a, b)
}

// Dot returns the inner product of two embeddings. For vectors produced by
// Embed (unit length or zero) this equals their cosine similarity; callers
// holding vectors of unknown provenance should divide by Norm themselves.
func Dot(a, b Vector) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return dot
}

// Norm returns the Euclidean length of v.
func Norm(v Vector) float64 {
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	return math.Sqrt(n)
}
