package darshan

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"ioagent/internal/dxt"
)

// oracleDigest is the digest by its definition: the SHA-256 of the plain
// byte stream of the canonical clone. ContentDigest streams the same
// bytes without building the clone; the two must never differ.
func oracleDigest(t testing.TB, l *Log) string {
	t.Helper()
	h := sha256.New()
	if err := encodeRaw(h, Canonical(l)); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkDigestOracle(t testing.TB, l *Log) {
	t.Helper()
	got, err := ContentDigest(l)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleDigest(t, l); got != want {
		t.Fatalf("ContentDigest %s != sha256(encodeRaw(Canonical(l))) %s", got, want)
	}
}

func TestContentDigestMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		l := randomLog(rng)
		// What the text form cannot carry: an all-zero record, a float
		// below the text precision, a negative zero, an unknown counter.
		md := l.Module(ModulePOSIX)
		md.Record("/scratch/empty", 3)
		r := md.Record("/scratch/tiny", 1)
		r.SetF("POSIX_F_READ_TIME", 4e-7)
		r.SetF("POSIX_F_WRITE_TIME", math.Copysign(0, -1))
		md.Record("/scratch/unknown", 2).SetC("NOT_A_COUNTER", 1)
		checkDigestOracle(t, l)
	}
	checkDigestOracle(t, FromDXT(testDXTTrace()))
	checkDigestOracle(t, &Log{DXT: testDXTTrace()})
}

// quantizeReference is quantize by definition.
func quantizeReference(v float64, prec int) float64 {
	q, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', prec, 64), 64)
	return q
}

func checkQuantize(t testing.TB, v float64) {
	t.Helper()
	for _, prec := range []int{4, 6} {
		got, want := dxt.Quantize(v, prec), quantizeReference(v, prec)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("quantize(%v [%#x], %d) = %v [%#x], strconv round trip gives %v [%#x]",
				v, math.Float64bits(v), prec, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// quantizeEdges are the values the integer path could get wrong: signed
// zeros, subnormals, exact ties of both grids (k+1/2 in units of 1e-6 is
// a dyadic rational only at odd multiples of 2^-7, of 1e-4 at odd
// multiples of 2^-5), their neighbours, the 1e9 hand-over and everything
// strconv keeps.
func quantizeEdges() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1p-1023, 4e-7, 5e-7, 6e-7, -5e-7, 4.9e-5, 5e-5, 5.1e-5,
		1e9, -1e9, math.Nextafter(1e9, 0), math.Nextafter(1e9, 2e9), 999999999.9999995, 1e15, 1e300,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 3600.123456789, 12.3456789012,
	}
	for _, j := range []float64{1, 3, 5, 7, 127, 129, 12345677, 1<<36 + 1} {
		for _, unit := range []float64{0x1p-7, 0x1p-5} {
			tie := j * unit
			edges = append(edges, tie, -tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
		}
	}
	return edges
}

func TestQuantizeMatchesStrconv(t *testing.T) {
	for _, v := range quantizeEdges() {
		checkQuantize(t, v)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		checkQuantize(t, math.Float64frombits(rng.Uint64()))                         // any bit pattern
		checkQuantize(t, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(24)-12))) // the fast path's range
		checkQuantize(t, float64(rng.Int63n(1<<40))/128)                             // ties and near-ties
	}
}

// FuzzQuantize: the integer fast path against the strconv round trip it
// replaces, compared bit for bit.
func FuzzQuantize(f *testing.F) {
	for _, v := range quantizeEdges() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkQuantize(t, math.Float64frombits(bits))
	})
}

// gzipped wraps a raw stream in the container's gzip layer.
func gzipped(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(raw)
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawHeader is a valid stream up to (not including) the mount count.
func rawHeader(ver uint16) []byte {
	var b []byte
	b = append(b, binaryMagic...)
	b = binary.LittleEndian.AppendUint16(b, ver)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(Version)))
	b = append(b, Version...)
	b = append(b, make([]byte, 6*8)...)        // uid..run time
	b = binary.LittleEndian.AppendUint32(b, 0) // exe ""
	return b
}

// TestDecodeLyingCounts: a count prefix is a claim, not an allocation
// size. Tiny bodies that announce huge element counts must fail for what
// they are — truncated — having allocated next to nothing. The DXT case
// made the parent allocate and zero 5.6 GB.
func TestDecodeLyingCounts(t *testing.T) {
	u32 := func(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
	noMounts := u32(u32(rawHeader(binaryVersionDXT), 0), 0) // no mounts, no metadata
	cases := map[string][]byte{
		"dxt events": u32(append(append(noMounts, 0), make([]byte, 8)...), maxDXTEvents-1),
		"mounts":     u32(rawHeader(binaryVersion), maxStrLen),
		"metadata":   u32(u32(rawHeader(binaryVersion), 0), maxStrLen),
		"records":    u32(append(append(u32(u32(rawHeader(binaryVersion), 0), 0), 1), byte(ModulePOSIX)), math.MaxUint32),
		"string":     u32(rawHeader(binaryVersion)[:len(rawHeader(binaryVersion))-4], maxStrLen),
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			body := gzipped(t, raw)
			if len(body) > 128 {
				t.Fatalf("test body is %d bytes, meant to be tiny", len(body))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(bytes.NewReader(body))
			runtime.ReadMemStats(&after)
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("Decode = %v, want a truncation error", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("a %d-byte body made Decode allocate %d bytes", len(body), got)
			}
		})
	}
}

// TestManyMetadataKeys: the metadata key order is on the digest path and
// the key count is the sender's choice (up to 2^20); sorting it must not
// be quadratic.
func TestManyMetadataKeys(t *testing.T) {
	l := sampleLog(t)
	for i := 0; i < 200000; i++ {
		l.Job.Metadata[fmt.Sprintf("key-%07d", (i*7919)%200000)] = "v"
	}
	start := time.Now()
	if _, err := ContentDigest(l); err != nil {
		t.Fatal(err)
	}
	// Tens of milliseconds with slices.Sort; the insertion sort it
	// replaced took two minutes. The fence leaves room for -race on a
	// loaded box.
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("digesting a 200k-key metadata log took %v", took)
	}
	checkDigestOracle(t, l)
}

// TestContentDigestAllocFence: ROADMAP item 2's budget. The digest's
// allocations are a constant, whatever the record count.
func TestContentDigestAllocFence(t *testing.T) {
	for _, nrec := range []int{1, 100, 5000} {
		l := sampleLog(t)
		for _, m := range AllModules {
			md := l.Module(m)
			for i := 0; i < nrec; i++ {
				r := NewFileRecord(fmt.Sprintf("/scratch/f%05d", (i*31)%nrec), i%7) // unsorted
				r.SetC(CounterNames(m)[i%len(CounterNames(m))], int64(i+1))
				if fn := FCounterNames(m); len(fn) > 0 {
					r.SetF(fn[i%len(fn)], float64(i)/7)
				}
				md.Records = append(md.Records, r)
			}
		}
		got := testing.AllocsPerRun(10, func() {
			if _, err := ContentDigest(l); err != nil {
				t.Fatal(err)
			}
		})
		if got > 16 {
			t.Errorf("ContentDigest of %d records per module: %.0f allocs, fence is 16", nrec, got)
		}
	}
}

// TestCounterBlockFitsBuffers: both halves of the codec move a record's
// positional counter block in one piece.
func TestCounterBlockFitsBuffers(t *testing.T) {
	for _, m := range AllModules {
		if n := 8 * (len(CounterNames(m)) + len(FCounterNames(m))); n > decBufSize || n > encBufSize {
			t.Errorf("module %s: counter block of %d bytes exceeds the codec buffers", m, n)
		}
	}
}

// TestCodecSharedLogConcurrent (run under -race): one log shared by eight
// goroutines that digest, encode and decode it at once — the pool and the
// journal hook do exactly that. The codec may only read the shared log,
// and nothing it returns may alias pooled state another call then reuses.
func TestCodecSharedLogConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shared := randomLog(rng)
	for _, md := range shared.Modules { // leave the records unsorted
		rng.Shuffle(len(md.Records), func(i, j int) { md.Records[i], md.Records[j] = md.Records[j], md.Records[i] })
	}
	dxtLog := FromDXT(testDXTTrace())
	for _, l := range []*Log{shared, dxtLog} {
		want := oracleDigest(t, l)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var kept []*Log
				for i := 0; i < 20; i++ {
					if got, err := ContentDigest(l); err != nil || got != want {
						t.Errorf("ContentDigest = %s, %v; want %s", got, err, want)
						return
					}
					var buf bytes.Buffer
					if err := Encode(&buf, l); err != nil {
						t.Error(err)
						return
					}
					back, err := Decode(&buf)
					if err != nil {
						t.Error(err)
						return
					}
					kept = append(kept, back)
				}
				// Every decoded log still says what it said when it was
				// returned, after the pooled state served other calls.
				for _, back := range kept {
					if got, _ := ContentDigest(back); got != want {
						t.Errorf("decoded log digests to %s, want %s", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestDecodedLogOwnsItsMemory: strings and events of a decoded log are
// copies, not views of the pooled buffers the next Decode overwrites.
func TestDecodedLogOwnsItsMemory(t *testing.T) {
	first := FromDXT(testDXTTrace())
	var a bytes.Buffer
	if err := Encode(&a, first); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&a)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := TextString(got)
	events := append([]dxt.Event(nil), got.DXT.Events...)

	other := sampleLog(t)
	other.Job.Exe = "/a/completely/different/executable"
	for i := 0; i < 3; i++ {
		var b bytes.Buffer
		if err := Encode(&b, other); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(&b); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := TextString(got); after != before {
		t.Fatal("a later Decode changed an earlier decoded log")
	}
	for i, ev := range got.DXT.Events {
		if ev != events[i] {
			t.Fatalf("event %d changed under a later Decode: %+v != %+v", i, ev, events[i])
		}
	}
}

// TestEncodeLeavesLogUntouched: Encode orders records in its own scratch.
func TestEncodeLeavesLogUntouched(t *testing.T) {
	l := sampleLog(t)
	md := l.Module(ModulePOSIX)
	md.Record("/scratch/aaa", 0).SetC("POSIX_OPENS", 1) // sorts before out.dat
	order := append([]*FileRecord(nil), md.Records...)
	if err := Encode(io.Discard, l); err != nil {
		t.Fatal(err)
	}
	for i, r := range md.Records {
		if r != order[i] {
			t.Fatal("Encode reordered the caller's records")
		}
	}
}
