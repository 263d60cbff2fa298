package darshan

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseText: the text parser must never panic, must accept exactly
// what the oracle (the parser it replaced: strings.Fields per line, a
// linear record scan) accepts and build the same log, and must round-trip
// whatever it accepts.
func FuzzParseText(f *testing.F) {
	l := NewLog()
	l.Job = Job{UID: 1, JobID: 2, StartTime: 3, EndTime: 4, NProcs: 8, RunTime: 1.5,
		Exe: "/bin/x", Metadata: map[string]string{"mpi": "1"}}
	l.Job.Mounts = []Mount{{"/scratch", "lustre"}}
	r := l.Module(ModulePOSIX).Record("/scratch/f", 0)
	r.SetC("POSIX_OPENS", 1)
	r.SetF("POSIX_F_META_TIME", 0.25)
	seed, _ := TextString(l)
	f.Add(seed)
	f.Add("# darshan log version: 3.41\n")
	f.Add("POSIX\t0\t1\tPOSIX_OPENS\t1\t/f\t/\text4\n")
	f.Add("garbage\nlines\n\n# run time: xx\n")
	f.Add("POSIX 0 12345 POSIX_OPENS 1 /a / ext4\nPOSIX 0 12345 POSIX_READS 2 /a / ext4\n") // a foreign record id
	f.Add("MPIIO 0 1 MPIIO_SYNCS 1 /f / ext4\nMPI-IO 0 1 MPIIO_HINTS 2 /f / ext4\nPOSIX 00 01 POSIX_OPENS 3 /f / ext4\n")
	f.Add("POSIX\u00a00\u20281\tPOSIX_OPENS\u30001\t/f\u0085/\text4\n") // Unicode white space splits fields too
	f.Add("POSIX 0 1 POSIX_F_READ_TIME NaN /f\xff / ext4\nPOSIX 0 1 POSIX_OPENS 1 /f / ext4 extra\n")

	f.Fuzz(func(t *testing.T, text string) {
		log, err := ParseText(strings.NewReader(text))
		want, wantErr := oracleParseText(text)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject diverged: ParseText err=%v, oracle err=%v", err, wantErr)
		}
		if err != nil {
			return
		}
		if diff := diffLogs(log, want); diff != "" {
			t.Fatalf("parse differs from the oracle: %s", diff)
		}
		// Anything accepted must render and re-parse.
		out, err := TextString(log)
		if err != nil {
			return // names with spaces are rejected at render time
		}
		if _, err := ParseText(strings.NewReader(out)); err != nil {
			t.Fatalf("render/re-parse failed: %v\n%s", err, out)
		}
	})
}

// FuzzDecode: the binary decoder must never panic on arbitrary bytes, and
// whatever it accepts digests to the digest's definition (the streamed
// canonical form equals the hashed encoding of the canonical clone).
func FuzzDecode(f *testing.F) {
	l := NewLog()
	l.Job.NProcs = 2
	l.Module(ModulePOSIX).Record("/f", 0).SetC("POSIX_OPENS", 1)
	var buf bytes.Buffer
	if err := Encode(&buf, l); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var dxtBuf bytes.Buffer
	if err := Encode(&dxtBuf, FromDXT(testDXTTrace())); err != nil {
		f.Fatal(err)
	}
	f.Add(dxtBuf.Bytes())
	f.Add([]byte("DSHN garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkDigestOracle(t, log)
		if err := log.Validate(); err != nil {
			// Corrupt-but-decodable inputs may carry unknown counters;
			// Validate flagging them is correct behavior, not a crash.
			return
		}
	})
}
