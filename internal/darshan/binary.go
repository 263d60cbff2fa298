package darshan

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"

	"ioagent/internal/dxt"
)

// Binary log codec. The upstream Darshan runtime writes a zlib-compressed
// proprietary container; we reproduce the same role with a simple, versioned,
// gzip-compressed little-endian format:
//
//	magic "DSHN" | u16 version | job header | u8 nmodules |
//	  per module: u8 id | u32 nrecords |
//	    per record: u64 record id | i32 rank | str name | str mountpt |
//	      str fstype | counters (positional i64 per table) |
//	      fcounters (positional f64 per table)
//
// Counters are stored positionally against the canonical tables in
// counters.go, exactly as upstream stores fixed counter arrays.

const binaryMagic = "DSHN"

// binaryVersion is bumped whenever the on-disk layout changes.
const binaryVersion uint16 = 2

// binaryVersionDXT marks a log that carries a DXT event-stream section
// after the module records. Counter-only logs keep writing version 2, so
// every pre-DXT digest and on-disk cache entry is byte-stable; decoders
// accept both.
const binaryVersionDXT uint16 = 3

// Encode writes the log in binary form to w. The caller's log is only
// read: records are ordered in codec-private scratch, never in place.
func Encode(w io.Writer, l *Log) error {
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	err := encodeRaw(gz, l)
	if err == nil {
		err = gz.Close()
	}
	gz.Reset(io.Discard) // an idle pool entry must not pin the caller's writer
	gzipWriters.Put(gz)
	return err
}

// gzipWriters recycles deflate state: a fresh gzip.Writer allocates about
// 800 KB on its first write, which the journal paid once per fresh job.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// encodeRaw writes the uncompressed byte stream (everything inside the
// gzip layer).
func encodeRaw(w io.Writer, l *Log) error {
	e := encoders.Get().(*encoder)
	defer e.release()
	e.w = w
	e.log(l, false)
	return e.flush()
}

// encBufSize bounds the encoder's staging buffer; it is flushed to the
// sink whenever the next field would not fit. Every fixed-size field and
// every record's counter block is far smaller.
const encBufSize = 32 << 10

// maxPooledRecs bounds the record scratch an idle encoder may keep.
const maxPooledRecs = 1 << 16

// encoder is the pooled write half of the codec: fields are appended to
// buf and flushed to w in encBufSize chunks, so one pass over the log
// feeds the compressor (Encode) or the hash (ContentDigest) without an
// intermediate copy of the stream.
type encoder struct {
	w    io.Writer
	err  error
	buf  []byte        // len <= cap == encBufSize
	recs []*FileRecord // the records being written, grouped by module
}

var encoders = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, encBufSize)} }}

// release returns e to the pool holding nothing of the caller's: no
// writer, no record pointers.
func (e *encoder) release() {
	clear(e.recs)
	e.recs = e.recs[:0]
	if cap(e.recs) > maxPooledRecs {
		e.recs = nil
	}
	e.w, e.err, e.buf = nil, nil, e.buf[:0]
	encoders.Put(e)
}

func (e *encoder) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// grow makes room for n <= encBufSize more bytes and returns them.
func (e *encoder) grow(n int) []byte {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
	e.buf = e.buf[:len(e.buf)+n]
	return e.buf[len(e.buf)-n:]
}

func (e *encoder) u8(v uint8)    { e.grow(1)[0] = v }
func (e *encoder) u16(v uint16)  { binary.LittleEndian.PutUint16(e.grow(2), v) }
func (e *encoder) u32(v uint32)  { binary.LittleEndian.PutUint32(e.grow(4), v) }
func (e *encoder) u64(v uint64)  { binary.LittleEndian.PutUint64(e.grow(8), v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// raw appends s, flushing as often as its length requires.
func (e *encoder) raw(s string) {
	for len(s) > 0 {
		if len(e.buf) == cap(e.buf) {
			e.flush()
		}
		n := copy(e.buf[len(e.buf):cap(e.buf)], s)
		e.buf = e.buf[:len(e.buf)+n]
		s = s[n:]
	}
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.raw(s)
}

// log writes l's byte stream. With canonical set it writes the
// rendering-neutral form ContentDigest hashes instead — byte for byte
// what the plain stream of Canonical(l) would be, without building it:
// floats quantized through the text precision, records with no nonzero
// counter skipped. (A DXT-carrying log's canonical form is the one derived
// from its events; ContentDigest sees to that before it calls.)
func (e *encoder) log(l *Log, canonical bool) {
	runTime := l.Job.RunTime
	if canonical {
		runTime = dxt.Quantize(l.Job.RunTime, 4)
	}
	ver := binaryVersion
	if l.DXT != nil {
		ver = binaryVersionDXT
	}
	e.raw(binaryMagic)
	e.u16(ver)
	e.str(l.Version)
	e.job(&l.Job, runTime)

	// The module and record counts precede the data, so gather first:
	// recs[bounds[m]:bounds[m+1]] are module m's records.
	var bounds [numModules + 1]int
	nmods := 0
	for m := ModuleID(0); m < numModules; m++ {
		if md := l.Modules[m]; md != nil {
			for _, r := range md.Records {
				if !canonical || r.hasCanonicalContent() {
					e.recs = append(e.recs, r)
				}
			}
		}
		bounds[m+1] = len(e.recs)
		if bounds[m+1] > bounds[m] {
			nmods++
		}
	}
	e.u8(uint8(nmods))
	for m := ModuleID(0); m < numModules; m++ {
		recs := e.recs[bounds[m]:bounds[m+1]]
		if len(recs) == 0 {
			continue
		}
		sortRecords(recs)
		e.u8(uint8(m))
		e.u32(uint32(len(recs)))
		for _, r := range recs {
			e.record(m, r, canonical)
		}
	}
	if l.DXT != nil {
		e.dxt(l.DXT)
	}
}

func (e *encoder) job(j *Job, runTime float64) {
	e.i64(int64(j.UID))
	e.i64(j.JobID)
	e.i64(j.StartTime)
	e.i64(j.EndTime)
	e.i64(int64(j.NProcs))
	e.f64(runTime)
	e.str(j.Exe)
	e.u32(uint32(len(j.Mounts)))
	for _, m := range j.Mounts {
		e.str(m.Point)
		e.str(m.FSType)
	}
	// Metadata in sorted key order for deterministic bytes.
	keys := sortedKeys(j.Metadata)
	e.u32(uint32(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.str(j.Metadata[k])
	}
}

// record writes one record; its counters are stored positionally, so the
// block is zeroed in place and the (sparse) maps scattered into it.
func (e *encoder) record(m ModuleID, r *FileRecord, canonical bool) {
	e.u64(r.RecordID)
	e.i64(int64(r.Rank))
	e.str(r.Name)
	e.str(r.MountPt)
	e.str(r.FSType)
	ints, floats := counterIndex[m], fcounterIndex[m]
	nints := len(counterTables[m])
	block := e.grow(8 * (nints + len(fcounterTables[m])))
	clear(block)
	for name, v := range r.Counters {
		if i, ok := ints[name]; ok {
			binary.LittleEndian.PutUint64(block[8*i:], uint64(v))
		}
	}
	block = block[8*nints:]
	for name, v := range r.FCounters {
		if canonical {
			v = dxt.Quantize(v, 6)
			if v == 0 {
				continue // the text form has no line for it; +0 either way
			}
		}
		if i, ok := floats[name]; ok {
			binary.LittleEndian.PutUint64(block[8*i:], math.Float64bits(v))
		}
	}
}

// dxt appends the per-operation event stream (version 3 logs only).
func (e *encoder) dxt(t *dxt.Trace) {
	e.i64(int64(t.NProcs))
	e.u32(uint32(len(t.Events)))
	for i := range t.Events {
		ev := &t.Events[i]
		e.str(ev.Module)
		e.i64(int64(ev.Rank))
		e.u8(uint8(ev.Op))
		e.i64(int64(ev.Seq))
		e.i64(ev.Offset)
		e.i64(ev.Length)
		e.f64(ev.Start)
		e.f64(ev.End)
		e.str(ev.File)
	}
}

// Decode reads a binary log from r. The stream is inflated lazily through
// pooled, fixed-size buffers: memory grows with the bytes actually
// decoded, never with a count the wire merely claims.
func Decode(r io.Reader) (*Log, error) {
	d := decoders.Get().(*decoder)
	defer d.release()
	d.in.Reset(r)
	if err := d.gz.Reset(d.in); err != nil {
		return nil, fmt.Errorf("darshan: not a binary log: %w", err)
	}
	d.r.Reset(&d.gz)

	magic := d.next(4)
	if d.err == nil && string(magic) != binaryMagic {
		return nil, fmt.Errorf("darshan: bad magic %q", magic)
	}
	ver := d.u16()
	if d.err == nil && ver != binaryVersion && ver != binaryVersionDXT {
		return nil, fmt.Errorf("darshan: unsupported binary version %d", ver)
	}

	l := NewLog()
	l.Version = d.str(false)
	d.job(&l.Job)

	nmods := int(d.u8())
	for i := 0; i < nmods && d.err == nil; i++ {
		m := ModuleID(d.u8())
		if m >= numModules {
			return nil, fmt.Errorf("darshan: bad module id %d", m)
		}
		nrec := int(d.u32())
		md := l.Module(m)
		var slab []FileRecord
		for j := 0; j < nrec && d.err == nil; j++ {
			if len(slab) == 0 {
				slab = make([]FileRecord, min(nrec-j, decodeSlab))
			}
			d.record(m, &slab[0])
			if d.err != nil {
				return nil, d.err
			}
			md.Records = append(md.Records, &slab[0])
			slab = slab[1:]
		}
	}
	if ver == binaryVersionDXT && d.err == nil {
		l.DXT = d.dxt()
	}
	if d.err != nil {
		return nil, d.err
	}
	return l, nil
}

const (
	// decBufSize is the decoded-side buffer. It must hold the largest
	// record counter block, which record peeks at in one piece.
	decBufSize = 32 << 10
	// decodeSlab is how many count-prefixed elements (records, events,
	// mounts, metadata entries) are allocated ahead of the bytes that
	// carry them.
	decodeSlab = 64
	// maxPooledNames bounds the intern table an idle decoder may keep.
	maxPooledNames = 1 << 10
)

// noInput is what idle pooled readers are parked on.
type noInput struct{}

func (noInput) Read([]byte) (int, error) { return 0, io.EOF }

// decoder is the pooled read half of the codec: inflate state and both
// buffers are reused across calls. Nothing it hands out aliases them —
// strings are copied out of the peeked bytes.
type decoder struct {
	in  *bufio.Reader // compressed side: flate's byte reader over the caller's r
	gz  gzip.Reader
	r   *bufio.Reader // decoded side, decBufSize
	err error
	// names interns the strings a log repeats per record or per event
	// (mount point, fs type, DXT module and file).
	names map[string]string
}

var decoders = sync.Pool{New: func() any {
	return &decoder{
		in:    bufio.NewReader(noInput{}),
		r:     bufio.NewReaderSize(noInput{}, decBufSize),
		names: make(map[string]string),
	}
}}

// release parks the compressed side on noInput — everything else reads
// through it — so an idle pool entry pins neither the caller's reader nor
// a request-sized body behind it.
func (d *decoder) release() {
	d.in.Reset(noInput{})
	d.err = nil
	if len(d.names) > maxPooledNames {
		d.names = make(map[string]string)
	} else {
		clear(d.names)
	}
	decoders.Put(d)
}

// next consumes n <= decBufSize bytes and returns them, valid until the
// following read. A short stream fails exactly as io.ReadFull would.
func (d *decoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	b, err := d.r.Peek(n)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		d.err = err
		return nil
	}
	d.r.Discard(n)
	return b
}

func (d *decoder) u8() uint8 {
	if b := d.next(1); b != nil {
		return b[0]
	}
	return 0
}
func (d *decoder) u16() uint16 {
	if b := d.next(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}
func (d *decoder) u32() uint32 {
	if b := d.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}
func (d *decoder) u64() uint64 {
	if b := d.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// maxStrLen guards against corrupt length prefixes.
const maxStrLen = 1 << 20

// str reads a length-prefixed string. With intern set it is one of the
// few strings a log repeats on every record or event, and equal values
// share one allocation.
func (d *decoder) str(intern bool) string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxStrLen {
		d.err = fmt.Errorf("darshan: string length %d exceeds limit", n)
		return ""
	}
	if n > decBufSize {
		// Longer than the buffer: grow with the bytes that really arrive.
		var sb strings.Builder
		for rest := int(n); rest > 0 && d.err == nil; {
			chunk := d.next(min(rest, decBufSize))
			sb.Write(chunk)
			rest -= len(chunk)
		}
		if d.err == io.EOF && sb.Len() > 0 {
			d.err = io.ErrUnexpectedEOF
		}
		if d.err != nil {
			return ""
		}
		return sb.String()
	}
	b := d.next(int(n))
	if !intern {
		return string(b)
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

// count reads a u32 element count, refusing ones over limit. Callers
// allocate for min(count, decodeSlab) elements and grow by appending, so
// a lying count costs nothing until bytes back it.
func (d *decoder) count(what string, limit int) int {
	n := int(d.u32())
	if d.err == nil && n > limit {
		d.err = fmt.Errorf("darshan: %s count %d exceeds limit", what, n)
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *decoder) job(j *Job) {
	j.UID = int(d.i64())
	j.JobID = d.i64()
	j.StartTime = d.i64()
	j.EndTime = d.i64()
	j.NProcs = int(d.i64())
	j.RunTime = d.f64()
	j.Exe = d.str(false)
	nm := d.count("mount", maxStrLen)
	j.Mounts = make([]Mount, 0, min(nm, decodeSlab))
	for i := 0; i < nm && d.err == nil; i++ {
		j.Mounts = append(j.Mounts, Mount{Point: d.str(true), FSType: d.str(true)})
	}
	nk := d.count("metadata", maxStrLen)
	for i := 0; i < nk && d.err == nil; i++ {
		k := d.str(false)
		v := d.str(false)
		if d.err == nil {
			j.Metadata[k] = v
		}
	}
}

// record fills r from the stream. The positional counter block is read
// in one piece, so both maps are sized for exactly the nonzero entries
// they will hold instead of growing through every power of two.
func (d *decoder) record(m ModuleID, r *FileRecord) {
	r.RecordID = d.u64()
	r.Rank = int(d.i64())
	r.Name = d.str(false)
	r.MountPt = d.str(true)
	r.FSType = d.str(true)
	names, fnames := counterTables[m], fcounterTables[m]
	block := d.next(8 * (len(names) + len(fnames)))
	if block == nil {
		return
	}
	ints, floats := block[:8*len(names)], block[8*len(names):]
	nonzero := 0
	for i := range names {
		if binary.LittleEndian.Uint64(ints[8*i:]) != 0 {
			nonzero++
		}
	}
	r.Counters = make(map[string]int64, nonzero)
	for i, name := range names {
		if v := binary.LittleEndian.Uint64(ints[8*i:]); v != 0 {
			r.Counters[name] = int64(v)
		}
	}
	nonzero = 0
	for i := range fnames {
		if math.Float64frombits(binary.LittleEndian.Uint64(floats[8*i:])) != 0 {
			nonzero++
		}
	}
	r.FCounters = make(map[string]float64, nonzero)
	for i, name := range fnames {
		if v := math.Float64frombits(binary.LittleEndian.Uint64(floats[8*i:])); v != 0 {
			r.FCounters[name] = v
		}
	}
}

// maxDXTEvents guards against corrupt event-count prefixes.
const maxDXTEvents = 1 << 26

// dxt reads the version-3 event-stream section.
func (d *decoder) dxt() *dxt.Trace {
	t := &dxt.Trace{NProcs: int(d.i64())}
	n := d.count("DXT event", maxDXTEvents)
	t.Events = make([]dxt.Event, 0, min(n, decodeSlab))
	for i := 0; i < n && d.err == nil; i++ {
		ev := dxt.Event{Module: d.str(true)}
		// rank i64 | op u8 | seq, offset, length i64 | start, end f64
		b := d.next(49)
		if b == nil {
			break
		}
		ev.Rank = int(int64(binary.LittleEndian.Uint64(b)))
		ev.Op = dxt.OpKind(b[8])
		ev.Seq = int(int64(binary.LittleEndian.Uint64(b[9:])))
		ev.Offset = int64(binary.LittleEndian.Uint64(b[17:]))
		ev.Length = int64(binary.LittleEndian.Uint64(b[25:]))
		ev.Start = math.Float64frombits(binary.LittleEndian.Uint64(b[33:]))
		ev.End = math.Float64frombits(binary.LittleEndian.Uint64(b[41:]))
		ev.File = d.str(true)
		t.Events = append(t.Events, ev)
	}
	return t
}

// sortRecords orders records by (Name, Rank): the one record order of
// every rendering and of the content digest.
func sortRecords(recs []*FileRecord) {
	slices.SortFunc(recs, func(a, b *FileRecord) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return cmp.Compare(a.Rank, b.Rank)
	})
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
