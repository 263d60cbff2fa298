package dxt

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// The primitives of the line-oriented text codecs. Quantize is shared with
// darshan-parser text and the content digest, so it lives here, in the
// leaf package both can import.

// pow10 holds the text precisions Quantize rounds to.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// Quantize rounds v through the text rendering: format with prec decimal
// places (%.6f for timestamps and float counters, %.4f for run time),
// parse back. Every rendering of one value lands on the same float64
// because all of them pass through this one function.
//
// The strconv round trip is the definition; below 1e9 it is computed
// exactly in integers instead. v = m*2^-s with m < 2^53, so v*10^prec is
// the 128-bit product m*10^prec shifted right by s; rounding that
// half-to-even gives the integer N whose digits FormatFloat(v,'f',prec)
// prints (it rounds the exact binary value the same way), N < 2^53 is an
// exact float64, and one IEEE division N/10^prec is the correctly rounded
// value of that decimal — which is what ParseFloat returns.
func Quantize(v float64, prec int) float64 {
	if math.Abs(v) < 1e9 && prec < len(pow10) { // false for NaN
		u := math.Float64bits(v)
		m, exp := u&(1<<52-1), int(u>>52)&0x7ff
		if exp == 0 {
			exp = 1 // subnormal: no implicit bit, same scale as exp 1
		} else {
			m |= 1 << 52
		}
		s := uint(1075 - exp) // >= 23 because |v| < 2^30
		if s > 75 {
			return math.Copysign(0, v) // m*10^prec < 2^73: under a quarter
		}
		hi, lo := bits.Mul64(m, uint64(pow10[prec]))
		// n is the integer part; rem the fraction's top 64 bits, sticky
		// whether anything nonzero lies below them.
		var n, rem uint64
		var sticky bool
		if s < 64 {
			n, rem = hi<<(64-s)|lo>>s, lo<<(64-s)
		} else {
			n, rem, sticky = hi>>(s-64), hi<<(128-s)|lo>>(s-64), lo<<(128-s) != 0
		}
		const half = 1 << 63
		if rem > half || rem == half && (sticky || n&1 == 1) {
			n++
		}
		return math.Copysign(float64(n)/pow10[prec], v)
	}
	q, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', prec, 64), 64)
	return q
}

// Byte classes of the field splitter: everything that is neither is a
// field byte.
const (
	classSpace    = 1 // the ASCII bytes unicode.IsSpace accepts
	classNonASCII = 2
)

var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = classSpace
	}
	for b := 0x80; b < 0x100; b++ {
		c[b] = classNonASCII
	}
	return c
}()

// fields splits line around runs of white space into dst without
// allocating and returns how many fields the line has — strings.Fields
// for a caller that knows how many it expects. Fields beyond len(dst) are
// counted but not stored. The stored fields are substrings of line.
//
// A line with a non-ASCII byte may contain Unicode white space (U+0085,
// U+00A0, U+2000...), which only a rune decode can tell from a name byte;
// such lines are rare and are handed to strings.Fields itself, so the
// split is the same for every input.
func fields(line string, dst []string) int {
	n, i := 0, 0
	for {
		for i < len(line) && byteClass[line[i]] == classSpace {
			i++
		}
		start := i
		for i < len(line) && byteClass[line[i]] == 0 {
			i++
		}
		if i < len(line) && byteClass[line[i]] == classNonASCII {
			f := strings.Fields(line)
			copy(dst, f)
			return len(f)
		}
		if i == start {
			return n
		}
		if n < len(dst) {
			dst[n] = line[start:i]
		}
		n++
	}
}
