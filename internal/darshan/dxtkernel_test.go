package darshan

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ioagent/internal/dxt"
)

// TestFromDXTMPIIOCounterNames: every counter a derivation writes is one
// its module has. The names used to be built from ModuleID.String(), which
// is "MPI-IO" where the counter prefix is "MPIIO": the codec, the digest,
// drishti and Summarize all dropped them silently.
func TestFromDXTMPIIOCounterNames(t *testing.T) {
	tr := &dxt.Trace{NProcs: 4}
	for _, mod := range []string{"X_POSIX", "X_MPIIO", "X_STDIO"} {
		for rank := 0; rank < 3; rank++ {
			for seq, op := range []dxt.OpKind{dxt.OpRead, dxt.OpWrite, dxt.OpRead} {
				start := 0.01*float64(seq) + 0.001*float64(rank)
				tr.Events = append(tr.Events,
					dxt.Event{Module: mod, Rank: rank, File: "/scratch/shared", Op: op, Seq: seq,
						Offset: int64(seq) * 1000, Length: 1000, Start: start, End: start + 0.004},
					dxt.Event{Module: mod, Rank: rank, File: fmt.Sprintf("/scratch/own.%d", rank), Op: op, Seq: seq,
						Offset: int64(seq) << 20, Length: 1 << 20, Start: start + 0.1, End: start + 0.2})
			}
		}
	}
	l := FromDXT(tr)
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
	for _, m := range []ModuleID{ModulePOSIX, ModuleMPIIO, ModuleSTDIO} {
		if got := len(l.Module(m).Records); got != 4 {
			t.Fatalf("%s: %d records, want 4", m, got)
		}
	}
	shared := l.Module(ModuleMPIIO).Records[3]
	if shared.Name != "/scratch/shared" || shared.Rank != SharedRank {
		t.Fatalf("record %q rank %d, want the shared file last", shared.Name, shared.Rank)
	}
	for name, want := range map[string]int64{
		"MPIIO_BYTES_READ": 6000, "MPIIO_BYTES_WRITTEN": 3000,
		"MPIIO_INDEP_READS": 6, "MPIIO_INDEP_WRITES": 3, "MPIIO_INDEP_OPENS": 3,
		"MPIIO_SIZE_READ_AGG_100_1K": 6, "MPIIO_SLOWEST_RANK_BYTES": 3000,
	} {
		if got := shared.C(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := shared.F("MPIIO_F_READ_TIME"); got < 0.0239 || got > 0.0241 {
		t.Errorf("MPIIO_F_READ_TIME = %v, want 6 reads of 4 ms", got)
	}
}

// TestFromDXTDigestIsContentDigest: the one-derivation path names the
// address the untrusted path computes for the same log, and it is the
// digest's definition.
func TestFromDXTDigestIsContentDigest(t *testing.T) {
	l, got, err := FromDXTDigest(testDXTTrace())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ContentDigest(l)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got != oracleDigest(t, l) {
		t.Fatalf("FromDXTDigest %s, ContentDigest %s, definition %s", got, want, oracleDigest(t, l))
	}
	// A log whose counters were tampered with after the derivation is
	// still addressed by its events.
	l.Module(ModulePOSIX).Records[0].SetC("POSIX_WRITES", 99)
	if tampered, _ := ContentDigest(l); tampered != want {
		t.Fatalf("ContentDigest trusted the carried counters: %s != %s", tampered, want)
	}
}

// TestFromDXTReusesCanonicalStream: deriving from an already canonical
// stream (what ContentDigest and Canonical do with a derived log's DXT)
// neither copies nor reorders it.
func TestFromDXTReusesCanonicalStream(t *testing.T) {
	first := FromDXT(testDXTTrace())
	again := FromDXT(first.DXT)
	if again.DXT != first.DXT {
		t.Error("a canonical event stream was cloned again")
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("re-derivation from the canonical stream differs")
	}
}

// TestDXTSharedLogConcurrent (run under -race): eight goroutines digest
// and canonicalize one shared DXT-carrying log. Both re-derive from the
// shared event stream, which they may only read.
func TestDXTSharedLogConcurrent(t *testing.T) {
	var wire bytes.Buffer
	if err := Encode(&wire, FromDXT(testDXTTrace())); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&wire)
	if err != nil {
		t.Fatal(err)
	}
	for name, shared := range map[string]*Log{
		"derived":     FromDXT(testDXTTrace()), // canonical stream, shared as it is
		"decoded":     decoded,                 // the same, as a binary v3 body hands it over
		"caller-made": {DXT: testDXTTrace()},   // unsorted stream, cloned per call
	} {
		want := oracleDigest(t, shared)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if got, err := ContentDigest(shared); err != nil || got != want {
						t.Errorf("%s: ContentDigest = %s, %v; want %s", name, got, err, want)
						return
					}
					if got := oracleDigest(t, Canonical(shared)); got != want {
						t.Errorf("%s: Canonical digests to %s, want %s", name, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestParseTextForeignRecordID: the record id column is whatever the
// renderer hashed the file name to — upstream darshan-parser does not use
// this package's HashRecordID. Lines that agree on module, record id and
// rank are one record; they used to be looked up by HashRecordID(name)
// against the printed id, never matched, and became one record per line.
func TestParseTextForeignRecordID(t *testing.T) {
	text := "POSIX\t0\t12345\tPOSIX_OPENS\t2\t/a\t/\text4\n" +
		"POSIX\t0\t12345\tPOSIX_READS\t7\t/a\t/\text4\n" +
		"POSIX\t1\t12345\tPOSIX_OPENS\t3\t/a\t/\text4\n" + // another rank: another record
		"POSIX\t0\t777\tPOSIX_OPENS\t4\t/b\t/\text4\n" +
		"MPI-IO\t0\t12345\tMPIIO_INDEP_OPENS\t5\t/a\t/\text4\n" + // another module
		"POSIX\t0\t12345\tPOSIX_F_READ_TIME\t0.5\t/a\t/\text4\n" // back to the first, not adjacent
	l, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	recs := l.Module(ModulePOSIX).Records
	if len(recs) != 3 {
		t.Fatalf("%d POSIX records, want 3", len(recs))
	}
	r := recs[0]
	if r.RecordID != 12345 || r.Rank != 0 || r.Name != "/a" {
		t.Fatalf("first record is %+v", r)
	}
	if r.C("POSIX_OPENS") != 2 || r.C("POSIX_READS") != 7 || r.F("POSIX_F_READ_TIME") != 0.5 {
		t.Errorf("the lines of record 12345 rank 0 did not land in one record: %v %v", r.Counters, r.FCounters)
	}
	if got := len(l.Module(ModuleMPIIO).Records); got != 1 {
		t.Errorf("%d MPI-IO records, want 1", got)
	}
	want, err := oracleParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, want) {
		t.Error("parse differs from the oracle")
	}
}

// TestParseTextManyForeignRecords: 50 000 lines over 5 000 records with
// foreign ids, interleaved so that no line follows one of its own record.
// Finding the record is a map lookup; with the linear scan it replaced
// this took time quadratic in the lines.
func TestParseTextManyForeignRecords(t *testing.T) {
	const nrec = 5000
	counters := CounterNames(ModulePOSIX)[:10]
	var b strings.Builder
	for _, counter := range counters {
		for rec := 0; rec < nrec; rec++ {
			fmt.Fprintf(&b, "POSIX\t%d\t%d\t%s\t1\t/scratch/f%d\t/scratch\tlustre\n", rec%64, 1000003*(rec+1), counter, rec)
		}
	}
	start := time.Now()
	l, err := ParseText(strings.NewReader(b.String()))
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	recs := l.Module(ModulePOSIX).Records
	if len(recs) != nrec {
		t.Fatalf("%d records, want %d", len(recs), nrec)
	}
	for _, r := range recs {
		if len(r.Counters) != len(counters) {
			t.Fatalf("record %s has %d counters, want %d", r.Name, len(r.Counters), len(counters))
		}
	}
	if took > time.Second {
		t.Errorf("parsing %d lines took %v", nrec*len(counters), took)
	}
}
