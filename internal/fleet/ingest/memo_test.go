package ingest_test

import (
	"crypto/sha256"
	"testing"

	"ioagent/internal/fleet/ingest"
)

// checkMemoMatchesDecode: through one memo, the first and the second call
// for a body answer exactly ingest.Decode's digest or error; the log
// arrives on a miss and never on a hit; wire is the body's hash; accepted
// bytes hit from their second call on; a refused body leaves nothing
// behind. (Not for concurrent use: it reads the counters around a call.)
func checkMemoMatchesDecode(t *testing.T, m *ingest.Memo, name string, body []byte) {
	t.Helper()
	_, wantDigest, wantErr := ingest.Decode(body)
	for call := 1; call <= 2; call++ {
		before := m.Stats()
		log, digest, wire, err := m.Decode(body)
		after := m.Stats()
		hit := after.Hits == before.Hits+1
		if wire != sha256.Sum256(body) {
			t.Fatalf("%s call %d: wire sum is not the body's SHA-256", name, call)
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s call %d: err %v, ingest.Decode err %v", name, call, err, wantErr)
		}
		if digest != wantDigest {
			t.Fatalf("%s call %d: digest %q, ingest.Decode %q", name, call, digest, wantDigest)
		}
		// A hit decodes nothing; a miss hands back what it decoded.
		if wantLog := err == nil && !hit; wantLog != (log != nil) {
			t.Fatalf("%s call %d (hit=%v): log present = %v, want %v", name, call, hit, log != nil, wantLog)
		}
		if wantErr != nil && (hit || after.Len != before.Len) {
			t.Fatalf("%s call %d: a refused body was remembered: %+v -> %+v", name, call, before, after)
		}
		if wantErr == nil && call == 2 && !hit {
			t.Fatalf("%s: second call of accepted bytes did not hit: %+v -> %+v", name, before, after)
		}
	}
}

// TestMemoMatchesDecode: the memo is invisible except in cost. Over the
// digests.golden corpus in all three renderings, and over truncated and
// corrupted copies of each, it answers what ingest.Decode answers.
func TestMemoMatchesDecode(t *testing.T) {
	m := ingest.NewMemo()
	inputs := goldenInputs(t)
	for _, w := range inputs {
		checkMemoMatchesDecode(t, m, w.name, w.body)

		checkMemoMatchesDecode(t, m, w.name+"/truncated", w.body[:len(w.body)/2])
		corrupt := append([]byte(nil), w.body...)
		corrupt[len(corrupt)/2] ^= 0x5a
		checkMemoMatchesDecode(t, m, w.name+"/corrupted", corrupt)
	}
	checkMemoMatchesDecode(t, m, "empty", nil)
	checkMemoMatchesDecode(t, m, "one byte", []byte{0x1f})
	if got := m.Stats().Len; got < len(inputs) {
		t.Fatalf("memo holds %d entries after %d accepted bodies", got, len(inputs))
	}
}

// FuzzMemoMatchesDecode: for arbitrary bytes, one shared memo and the
// bare front door agree, call after call.
func FuzzMemoMatchesDecode(f *testing.F) {
	for _, w := range goldenInputs(f)[:3] {
		f.Add(w.body)
	}
	f.Add([]byte("# darshan log version: 3.41\n"))
	f.Add([]byte{0x1f, 0x8b, 0x00, 0x01})
	m := ingest.NewMemo()
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<20 {
			return
		}
		checkMemoMatchesDecode(t, m, "fuzz", body)
	})
}
