package ingest

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"ioagent/internal/darshan"
)

// memoCapacity bounds a Memo in entries. An entry — two hashes' worth of
// payload plus list and map bookkeeping — measures about 250 B, so a full
// memo holds about 2 MB per hop; 8192 distinct resubmitted traces is well
// past what one daemon's result cache (default 1024) can answer for
// anyway.
const memoCapacity = 8192

// WireSum is the SHA-256 of one whole wire body.
type WireSum [sha256.Size]byte

// Memo remembers, per hop, which canonical content digest a buffered
// wire body decoded to, keyed by the SHA-256 of the body: a
// byte-identical resubmission then costs one hash instead of an inflate,
// a decode and a canonical digest. Three invariants keep it safe:
//
//   - Only self-computed digests enter: an entry is written by Decode
//     alone, from the digest this process derived with ingest.Decode out
//     of the very bytes it hashed. A client-asserted digest
//     (api.DigestHeader) is never stored, so nobody can teach a hop a
//     mapping.
//   - Refusals are never remembered: a body the front door rejects is
//     decoded, and rejected, again on every resubmission.
//   - Buffered path only: the key needs the whole body in hand before
//     parsing starts. Parser and upload sessions parse while bytes
//     arrive and do not consult it.
//
// The key must stay a cryptographic hash: on a hit nothing is decoded,
// so a collision would address — and serve — another trace's diagnosis.
// All methods are safe for concurrent use.
type Memo struct {
	capacity int

	mu      sync.Mutex
	order   *list.List // of *memoEntry; front = most recently used
	entries map[WireSum]*list.Element
	hits    int64
	misses  int64
}

type memoEntry struct {
	wire   WireSum
	digest string
}

// MemoStats is a point-in-time view of a Memo, for tests and debugging.
type MemoStats struct {
	// Hits and Misses count Decode calls answered from, and past, the
	// memo; a refused body counts as a miss.
	Hits, Misses int64
	// Len is the number of resident entries.
	Len int
}

// NewMemo returns an empty memo of the fixed capacity.
func NewMemo() *Memo { return newMemo(memoCapacity) }

func newMemo(capacity int) *Memo {
	return &Memo{capacity: capacity, order: list.New(), entries: make(map[WireSum]*list.Element)}
}

// Decode is ingest.Decode behind the memo: the same digest or the same
// error for the same bytes, on every call. On a hit log is nil — nothing
// was decoded, and a caller that turns out to need the log runs
// ingest.Decode itself; on a miss the body is decoded here and the pair
// remembered. wire is the body's hash either way, so a caller that needs
// a key for refused bytes does not hash them a second time.
func (m *Memo) Decode(trace []byte) (log *darshan.Log, digest string, wire WireSum, err error) {
	wire = sha256.Sum256(trace)
	if digest, ok := m.get(wire); ok {
		return nil, digest, wire, nil
	}
	if log, digest, err = Decode(trace); err != nil {
		return nil, "", wire, err
	}
	m.put(wire, digest)
	return log, digest, wire, nil
}

func (m *Memo) get(wire WireSum) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[wire]
	if !ok {
		m.misses++
		return "", false
	}
	m.hits++
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry).digest, true
}

func (m *Memo) put(wire WireSum, digest string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[wire]; ok {
		// Two goroutines missed on the same bytes; both derived this digest.
		m.order.MoveToFront(el)
		return
	}
	for m.order.Len() >= m.capacity {
		back := m.order.Back()
		delete(m.entries, back.Value.(*memoEntry).wire)
		m.order.Remove(back)
	}
	m.entries[wire] = m.order.PushFront(&memoEntry{wire: wire, digest: digest})
}

// Stats reports the memo's counters and size.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Len: m.order.Len()}
}
