package ingest_test

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/dxt"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/scenario"
)

// oracleDigest is the content digest by its definition, computed without
// the streaming path: the SHA-256 of what is inside the gzip layer of the
// canonical clone's encoding.
func oracleDigest(t testing.TB, l *darshan.Log) string {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.Encode(&buf, darshan.Canonical(l)); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, gz); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FuzzParserChunking: the front door has one answer per input. For
// arbitrary bytes split at arbitrary chunk boundaries, the whole-input
// Decode, the incremental Parser and the SDK's RouteKey make the same
// accept/reject decision and name the same content digest (RouteKey
// falling back to the wire-bytes hash on a reject) — and for
// darshan-parser text that answer matches the independent whole-body
// darshan.ParseText.
func FuzzParserChunking(f *testing.F) {
	var counterLog *darshan.Log
	var dxtText []byte
	for _, sc := range scenario.Matrix() {
		switch sc.Name {
		case "shared-file-contention":
			_, counterLog = sc.Build()
		case "shared-file-contention-dxt":
			dxtText, _ = sc.Build()
		}
	}
	text, err := darshan.TextString(counterLog)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(text), uint16(1))
	f.Add([]byte(text), uint16(7))
	f.Add([]byte(text), uint16(4096))
	f.Add(dxtText, uint16(5))
	f.Add([]byte("# darshan log version: 3.41\n"), uint16(3))
	f.Add([]byte{0x1f, 0x8b, 0x00, 0x01}, uint16(1)) // gzip magic, not a log

	f.Fuzz(func(t *testing.T, body []byte, seed uint16) {
		if len(body) > 1<<20 {
			return
		}
		wholeLog, wholeDigest, wholeErr := ingest.Decode(body)

		// Incremental: random chunk sizes from the fuzzed seed.
		rng := rand.New(rand.NewSource(int64(seed)))
		p := ingest.NewParser(0)
		var incErr error
		for off := 0; off < len(body) && incErr == nil; {
			n := min(1+rng.Intn(97), len(body)-off)
			_, incErr = p.Write(body[off : off+n])
			off += n
		}
		var incDigest string
		if incErr == nil {
			_, incDigest, incErr = p.Finish()
		}
		if (wholeErr == nil) != (incErr == nil) {
			t.Fatalf("accept/reject diverged: Decode err=%v, chunked err=%v (body %q)", wholeErr, incErr, body)
		}
		if incDigest != wholeDigest {
			t.Fatalf("digest diverged: chunked %s != Decode %s", incDigest, wholeDigest)
		}
		if wholeErr == nil && wholeLog == nil {
			t.Fatal("Decode accepted but returned a nil log")
		}
		if wholeErr == nil {
			if want := oracleDigest(t, wholeLog); wholeDigest != want {
				t.Fatalf("digest %s is not the hash of the canonical clone's encoding %s", wholeDigest, want)
			}
		}

		wantKey := wholeDigest
		if wholeErr != nil {
			sum := sha256.Sum256(body)
			wantKey = hex.EncodeToString(sum[:])
		}
		if key := client.RouteKey(body); key != wantKey {
			t.Fatalf("RouteKey %s, want %s (Decode err=%v)", key, wantKey, wholeErr)
		}

		isBinary := len(body) >= 2 && body[0] == 0x1f && body[1] == 0x8b
		if isBinary || bytes.HasPrefix(body, []byte(dxt.TextMagic)) {
			return // no independent reference for these renderings here
		}
		refLog, refErr := darshan.ParseText(bytes.NewReader(body))
		refOK := refErr == nil && len(refLog.ModuleList()) > 0
		if refOK != (wholeErr == nil) {
			t.Fatalf("accept/reject diverged: ParseText ok=%v, front door err=%v (body %q)", refOK, wholeErr, body)
		}
		if refOK {
			want, derr := darshan.ContentDigest(refLog)
			if derr != nil {
				t.Fatal(derr)
			}
			if wholeDigest != want {
				t.Fatalf("digest diverged: front door %s != ParseText %s", wholeDigest, want)
			}
		}
	})
}
