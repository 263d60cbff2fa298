package darshan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"ioagent/internal/dxt"
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
//
// A DXT-carrying log is addressed by its event stream alone: whatever
// counters it carries came from outside (a binary decode, a caller-built
// Log) and are not trusted to be the derivation, so the counter log is
// derived again from l.DXT here. A hop that derives the log itself uses
// FromDXTDigest and pays for one derivation, not two.
func ContentDigest(l *Log) (string, error) {
	if l.DXT != nil {
		l = FromDXT(l.DXT) // private derived log
	}
	return digestCanonical(l)
}

// FromDXTDigest is FromDXT together with the content digest of what it
// derived: one derivation serves both, because the digest is taken before
// the log escapes to anyone who could change it.
func FromDXTDigest(t *dxt.Trace) (*Log, string, error) {
	l := FromDXT(t)
	digest, err := digestCanonical(l)
	return l, digest, err
}

// digestCanonical hashes l's canonical stream; a DXT-carrying l must be
// FromDXT's own result.
func digestCanonical(l *Log) (string, error) {
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

// hasCanonicalContent reports whether the record survives
// canonicalization: some counter is nonzero at the text precision.
func (r *FileRecord) hasCanonicalContent() bool {
	for _, v := range r.Counters {
		if v != 0 {
			return true
		}
	}
	for _, v := range r.FCounters {
		if dxt.Quantize(v, 6) != 0 {
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
	clone.Job.RunTime = dxt.Quantize(l.Job.RunTime, 4)
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
				if q := dxt.Quantize(v, 6); q != 0 {
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
