package darshan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// ContentDigest returns the canonical content address of a log: the hex
// SHA-256 of its canonical binary encoding. Because the hash covers the
// decoded, canonicalized log — records sorted, counters positional,
// metadata in key order — and not the wire bytes it arrived as, the
// binary and darshan-parser-text renderings of one trace produce the SAME
// digest. That is the property the fleet's streaming ingest and cluster
// routing are built on: every party that can decode a trace agrees on its
// address without agreeing on its encoding.
//
// Rendering independence requires canonicalizing exactly what the text
// format cannot represent losslessly:
//
//   - floats quantize through the text precision (run time %.4f, float
//     counters %.6f) — the binary codec keeps full float64 bits, so
//     hashing them raw would split the renderings;
//   - records whose counters are all zero are dropped — the text form
//     has no line to carry them, while the binary form round-trips them
//     as empty records;
//   - the hash covers the uncompressed canonical stream (the bytes
//     inside Encode's gzip layer), so it is stable across compressor
//     versions.
//
// The canonical stream goes straight from the caller's log into the hash
// through the codec's pooled staging buffer (encoder.log): the log is only
// read — never sorted, cloned or otherwise touched — so concurrent digests
// of one shared log are safe, and the cost does not grow with a clone per
// record.
func ContentDigest(l *Log) (string, error) {
	e := encoders.Get().(*encoder)
	defer e.release()
	h := sha256.New()
	e.w = h
	e.log(l, true)
	if err := e.flush(); err != nil {
		return "", fmt.Errorf("darshan: content digest: %w", err)
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])), nil
}

// pow10 holds the text precisions quantize rounds to.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// quantize rounds v through the text rendering: format with the text
// form's precision, parse back. Both renderings of one value land on the
// same float64 because both pass through the identical function.
//
// The strconv round trip is the definition; below 1e9 it is computed
// exactly in integers instead. v = m*2^-s with m < 2^53, so v*10^prec is
// the 128-bit product m*10^prec shifted right by s; rounding that
// half-to-even gives the integer N whose digits FormatFloat(v,'f',prec)
// prints (it rounds the exact binary value the same way), N < 2^53 is an
// exact float64, and one IEEE division N/10^prec is the correctly rounded
// value of that decimal — which is what ParseFloat returns.
func quantize(v float64, prec int) float64 {
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

// hasCanonicalContent reports whether the record survives
// canonicalization: some counter is nonzero at the text precision.
func (r *FileRecord) hasCanonicalContent() bool {
	for _, v := range r.Counters {
		if v != 0 {
			return true
		}
	}
	for _, v := range r.FCounters {
		if quantize(v, 6) != 0 {
			return true
		}
	}
	return false
}

// canonicalClone builds the rendering-neutral form as a log of its own
// (Canonical): job and records are copied (never mutated in place), floats
// are quantized, and records with no nonzero counters are dropped.
// ContentDigest hashes the byte stream of exactly this form, which
// encoder.log writes without building it; the tests hold the two together.
//
// A DXT-carrying log canonicalizes through its event stream alone: the
// whole counter log is re-derived from the canonical (sorted, %.6f-
// quantized) events via FromDXT, and whatever job header or records the
// arriving rendering happened to carry are discarded — the DXT text form
// has no line for them, so keeping them would split the renderings. The
// canonical events themselves are part of the hashed stream (encodeRaw
// writes the version-3 DXT section), so two traces with different events
// but coincidentally equal derived counters still get distinct addresses.
func canonicalClone(l *Log) *Log {
	if l.DXT != nil {
		l = FromDXT(l.DXT) // private derived log; safe to canonicalize below
	}
	clone := &Log{
		Version: l.Version,
		Job:     l.Job,
		Modules: make(map[ModuleID]*ModuleData, len(l.Modules)),
		DXT:     l.DXT,
	}
	clone.Job.RunTime = quantize(l.Job.RunTime, 4)
	for m, md := range l.Modules {
		out := &ModuleData{Module: md.Module}
		for _, r := range md.Records {
			cr := &FileRecord{
				RecordID: r.RecordID, Rank: r.Rank,
				Name: r.Name, MountPt: r.MountPt, FSType: r.FSType,
				Counters:  r.Counters, // ints are exact; encodeRaw only reads
				FCounters: make(map[string]float64, len(r.FCounters)),
			}
			keep := false
			for _, v := range r.Counters {
				if v != 0 {
					keep = true
					break
				}
			}
			for name, v := range r.FCounters {
				if q := quantize(v, 6); q != 0 {
					cr.FCounters[name] = q
					keep = true
				}
			}
			if keep {
				out.Records = append(out.Records, cr)
			}
		}
		if len(out.Records) > 0 {
			clone.Modules[m] = out
		}
	}
	return clone
}

// Canonical returns the rendering-neutral form of a log: a private clone
// of the form ContentDigest hashes (floats quantized through the text
// precision, all-zero records dropped). Two renderings of one trace —
// binary and darshan-parser text — canonicalize to logs with identical
// contents, so any deterministic function of a Canonical log (feature
// extraction, heuristic analysis) is rendering-independent by
// construction. The caller's log is never mutated; the returned clone is
// the caller's own.
func Canonical(l *Log) *Log {
	return canonicalClone(l)
}

// ValidContentDigest reports whether s is shaped like a ContentDigest
// value (64 lowercase hex characters). Servers use it to refuse malformed
// client-asserted digests before trusting them for routing.
func ValidContentDigest(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
