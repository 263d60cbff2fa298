package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/iosim"
)

// testTrace builds a deterministic trace; distinct seeds give distinct
// content.
func testTrace(t testing.TB, seed int) *darshan.Log {
	t.Helper()
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*13 + 5, NProcs: 4, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/ingest/job%02d.ex", seed),
	})
	f := sim.OpenShared(fmt.Sprintf("/scratch/ing-%03d.dat", seed), iosim.POSIX, false, nil)
	for rank := 0; rank < 4; rank++ {
		for i := int64(0); i < 6; i++ {
			f.WriteAt(rank, (int64(rank)*6+i)*4096, 4096)
		}
	}
	f.Close()
	return sim.Finalize()
}

func textRendering(t testing.TB, log *darshan.Log) []byte {
	t.Helper()
	s, err := darshan.TextString(log)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(s)
}

func binaryRendering(t testing.TB, log *darshan.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.Encode(&buf, log); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// feedChunks writes body to a fresh parser in the given chunk sizes
// (cycling) and finishes it.
func feedChunks(t testing.TB, body []byte, sizes ...int) (*darshan.Log, string, error) {
	t.Helper()
	p := NewParser(0)
	for off, i := 0, 0; off < len(body); i++ {
		n := sizes[i%len(sizes)]
		if n > len(body)-off {
			n = len(body) - off
		}
		if _, err := p.Write(body[off : off+n]); err != nil {
			return nil, "", err
		}
		off += n
	}
	return p.Finish()
}

// TestParserTextEqualsWholeBodyParse: any chunking of a text trace must
// produce the same content digest as a whole-body parse.
func TestParserTextEqualsWholeBodyParse(t *testing.T) {
	log := testTrace(t, 1)
	body := textRendering(t, log)
	whole, err := darshan.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := darshan.ContentDigest(whole)
	if err != nil {
		t.Fatal(err)
	}

	for _, sizes := range [][]int{{1}, {2}, {7}, {64}, {1024}, {len(body)}, {3, 1, 31}} {
		parsed, digest, err := feedChunks(t, body, sizes...)
		if err != nil {
			t.Fatalf("chunks %v: %v", sizes, err)
		}
		if digest != want {
			t.Errorf("chunks %v: digest %s != whole-body %s", sizes, digest, want)
		}
		if len(parsed.ModuleList()) != len(whole.ModuleList()) {
			t.Errorf("chunks %v: module count %d != %d", sizes, len(parsed.ModuleList()), len(whole.ModuleList()))
		}
	}
}

// TestParserBinarySniff: a binary (gzip) body decodes at Finish and
// yields the same digest as its text rendering — one address per trace.
func TestParserBinarySniff(t *testing.T) {
	log := testTrace(t, 2)
	_, fromBin, err := feedChunks(t, binaryRendering(t, log), 11)
	if err != nil {
		t.Fatal(err)
	}
	_, fromText, err := feedChunks(t, textRendering(t, log), 17)
	if err != nil {
		t.Fatal(err)
	}
	if fromBin != fromText {
		t.Errorf("binary digest %s != text digest %s for the same trace", fromBin, fromText)
	}
}

// TestParserPreparsesBeforeBodyCompletes: after feeding only half the
// text body, lines and modules are already parsed — the property that
// gives streaming its time-to-first-parse win.
func TestParserPreparsesBeforeBodyCompletes(t *testing.T) {
	body := textRendering(t, testTrace(t, 3))
	p := NewParser(0)
	if _, err := p.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if !st.Decided || st.Binary {
		t.Fatalf("half-fed text parser: stats %+v, want decided text", st)
	}
	if st.Lines == 0 {
		t.Error("no lines parsed after half the body")
	}
	if st.Modules == 0 {
		t.Error("no modules pre-parsed after half the body")
	}
	if _, err := p.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestParserRefusesOversize(t *testing.T) {
	p := NewParser(16)
	if _, err := p.Write(make([]byte, 17)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized write error = %v, want ErrTooLarge", err)
	}
	// The parser stays poisoned.
	if _, err := p.Write([]byte("x")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("post-poison write error = %v, want ErrTooLarge", err)
	}
}

func TestParserRejectsGarbageAndEmpty(t *testing.T) {
	if _, _, err := feedChunks(t, []byte("not a trace at all"), 5); err == nil {
		t.Error("garbage text parsed without error")
	}
	p := NewParser(0)
	if _, _, err := p.Finish(); err == nil {
		t.Error("empty body finished without error")
	}
	// One byte: too short to sniff, still a clean refusal.
	p = NewParser(0)
	p.Write([]byte("#"))
	if _, _, err := p.Finish(); err == nil {
		t.Error("one-byte body finished without error")
	}
}

// TestParserMidStreamError: a malformed line fails the Write that
// completes it, not the Finish — so servers can abort doomed uploads
// early.
func TestParserMidStreamError(t *testing.T) {
	p := NewParser(0)
	if _, err := p.Write([]byte("# darshan log version: 3.41\nPOSIX bogus line\nmore\n")); err == nil {
		t.Error("malformed counter line did not fail the completing Write")
	}
}
