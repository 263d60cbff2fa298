package iosim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ioagent/internal/darshan"
	"ioagent/internal/dxt"
)

// Sim is a simulated parallel job under Darshan instrumentation. Create one
// with New, script file operations, then call Finalize to obtain the log.
type Sim struct {
	cfg Config
	rng *rand.Rand

	clock    []float64 // per-rank elapsed seconds
	ostBytes []int64   // per-OST traffic (for tests and server-usage ground truth)
	nextOST  int       // round-robin allocator for stripe offsets

	files map[string]*File
	recs  map[recKey]*recState

	dxtEvents []dxt.Event
	dxtSeq    []int // per-rank segment counter

	finalized bool
}

type opKind int

const (
	opNone opKind = iota
	opRead
	opWrite
)

type recKey struct {
	mod  darshan.ModuleID
	path string
	rank int
}

// recState wraps an in-progress Darshan record with the bookkeeping needed
// to derive the top-4 access-size and stride counters at Finalize time.
type recState struct {
	rec      *darshan.FileRecord
	accesses map[int64]int64 // access size -> count
	strides  map[int64]int64 // stride -> count
	ioTime   float64         // rank time spent in data ops on this record
}

// cursor tracks a rank's position within an open file.
type cursor struct {
	pos     int64
	lastEnd int64
	lastOp  opKind
	started bool
}

// File is an open simulated file.
type File struct {
	s      *Sim
	path   string
	iface  Iface
	layout Layout
	mount  darshan.Mount
	cur    map[int]*cursor
	ranks  map[int]bool
	closed bool
}

// New creates a simulator from cfg. The zero values of cfg are filled with
// defaults (see Config).
func New(cfg Config) *Sim {
	cfg = cfg.withDefaults()
	if cfg.RankSkew != nil && len(cfg.RankSkew) != cfg.NProcs {
		panic(fmt.Sprintf("iosim: RankSkew has %d entries for %d procs", len(cfg.RankSkew), cfg.NProcs))
	}
	return &Sim{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		clock:    make([]float64, cfg.NProcs),
		ostBytes: make([]int64, cfg.FS.NumOSTs),
		files:    make(map[string]*File),
		recs:     make(map[recKey]*recState),
		dxtSeq:   make([]int, cfg.NProcs),
	}
}

// DXT returns the extended-tracing events recorded so far (nil unless
// Config.EnableDXT was set). The returned trace is a snapshot.
func (s *Sim) DXT() *dxt.Trace {
	if !s.cfg.EnableDXT {
		return nil
	}
	t := &dxt.Trace{NProcs: s.cfg.NProcs, Events: append([]dxt.Event(nil), s.dxtEvents...)}
	t.Sort()
	return t
}

// recordDXT appends one extended-tracing event when DXT is enabled.
func (s *Sim) recordDXT(module string, rank int, file string, kind opKind, off, size int64, start, end float64) {
	if !s.cfg.EnableDXT {
		return
	}
	op := dxt.OpWrite
	if kind == opRead {
		op = dxt.OpRead
	}
	s.dxtEvents = append(s.dxtEvents, dxt.Event{
		Module: module, Rank: rank, File: file, Op: op,
		Seq: s.dxtSeq[rank], Offset: off, Length: size, Start: start, End: end,
	})
	s.dxtSeq[rank]++
}

// NProcs returns the number of simulated processes.
func (s *Sim) NProcs() int { return s.cfg.NProcs }

// mountFor resolves the mount table entry for a path.
func (s *Sim) mountFor(path string) darshan.Mount {
	if strings.HasPrefix(path, s.cfg.FS.MountPoint) {
		return darshan.Mount{Point: s.cfg.FS.MountPoint, FSType: "lustre"}
	}
	for _, m := range s.cfg.ExtraMounts {
		if strings.HasPrefix(path, m.Point) {
			return m
		}
	}
	return darshan.Mount{Point: "/", FSType: "ext4"}
}

// Open opens path on a single rank through the given interface. A nil
// layout uses the file system defaults. Opening the same path again returns
// the existing File and registers the new rank.
func (s *Sim) Open(path string, rank int, iface Iface, layout *Layout) *File {
	return s.open(path, []int{rank}, iface, layout, false)
}

// OpenShared opens path on every rank. When the interface is MPI-IO and
// collective is true the open itself is collective (MPI_File_open on the
// world communicator).
func (s *Sim) OpenShared(path string, iface Iface, collective bool, layout *Layout) *File {
	ranks := make([]int, s.cfg.NProcs)
	for i := range ranks {
		ranks[i] = i
	}
	return s.open(path, ranks, iface, layout, collective)
}

func (s *Sim) open(path string, ranks []int, iface Iface, layout *Layout, collective bool) *File {
	if s.finalized {
		panic("iosim: operation after Finalize")
	}
	f, ok := s.files[path]
	if !ok {
		lay := Layout{
			StripeSize:   s.cfg.FS.DefaultStripeSize,
			StripeWidth:  s.cfg.FS.DefaultStripeWidth,
			StripeOffset: -1,
		}
		if layout != nil {
			lay = *layout
			if lay.StripeSize <= 0 {
				lay.StripeSize = s.cfg.FS.DefaultStripeSize
			}
			if lay.StripeWidth <= 0 {
				lay.StripeWidth = s.cfg.FS.DefaultStripeWidth
			}
		}
		if lay.StripeWidth > s.cfg.FS.NumOSTs {
			lay.StripeWidth = s.cfg.FS.NumOSTs
		}
		if lay.StripeOffset < 0 {
			lay.StripeOffset = s.nextOST % s.cfg.FS.NumOSTs
			s.nextOST += lay.StripeWidth
		}
		f = &File{
			s: s, path: path, iface: iface, layout: lay,
			mount: s.mountFor(path),
			cur:   make(map[int]*cursor),
			ranks: make(map[int]bool),
		}
		s.files[path] = f
	}
	for _, r := range ranks {
		s.checkRank(r)
		if !f.ranks[r] {
			f.ranks[r] = true
			f.cur[r] = &cursor{}
		}
		s.recordOpen(f, r, iface, collective)
	}
	return f
}

func (s *Sim) checkRank(rank int) {
	if rank < 0 || rank >= s.cfg.NProcs {
		panic(fmt.Sprintf("iosim: rank %d out of range [0,%d)", rank, s.cfg.NProcs))
	}
}

// state returns (creating if needed) the record state for a module record.
func (s *Sim) state(mod darshan.ModuleID, f *File, rank int) *recState {
	k := recKey{mod, f.path, rank}
	st, ok := s.recs[k]
	if !ok {
		rec := darshan.NewFileRecord(f.path, rank)
		rec.MountPt = f.mount.Point
		rec.FSType = f.mount.FSType
		st = &recState{
			rec:      rec,
			accesses: make(map[int64]int64),
			strides:  make(map[int64]int64),
		}
		s.recs[k] = st
		if mod == darshan.ModulePOSIX {
			rec.SetC("POSIX_MEM_ALIGNMENT", MemAlignment)
			rec.SetC("POSIX_FILE_ALIGNMENT", s.fileAlignment(f))
			rec.SetC("POSIX_MODE", 0644)
		}
	}
	return st
}

func (s *Sim) fileAlignment(f *File) int64 {
	if f.mount.FSType == "lustre" {
		return f.layout.StripeSize
	}
	return 4096
}

// advance charges rank's clock with cost seconds (scaled by skew) and
// returns the interval [start, end) in job-relative seconds.
func (s *Sim) advance(rank int, cost float64) (start, end float64) {
	if s.cfg.RankSkew != nil {
		cost *= s.cfg.RankSkew[rank]
	}
	start = s.clock[rank]
	s.clock[rank] = start + cost
	return start, s.clock[rank]
}

// metaCost returns a jittered metadata latency.
func (s *Sim) metaCost() float64 {
	return s.cfg.MetaLatency * (0.8 + 0.4*s.rng.Float64())
}

// dataCost models one data transfer of size bytes on file f. Effective
// bandwidth scales with the number of distinct stripes (hence OSTs) the
// transfer covers, capped by the file's stripe width; random (non-
// sequential) transfers pay an extra seek penalty.
func (s *Sim) dataCost(f *File, size int64, sequential bool) float64 {
	stripes := int64(1)
	if f.layout.StripeSize > 0 {
		stripes = (size + f.layout.StripeSize - 1) / f.layout.StripeSize
	}
	par := int64(f.layout.StripeWidth)
	if stripes < par {
		par = stripes
	}
	if par < 1 {
		par = 1
	}
	bw := s.cfg.FS.PerOSTBandwidth * float64(par)
	cost := s.cfg.OpLatency + float64(size)/bw
	if !sequential {
		cost += 4 * s.cfg.OpLatency // seek penalty
	}
	return cost * (0.9 + 0.2*s.rng.Float64())
}

// chargeOSTs attributes size bytes starting at off to the OSTs holding the
// covered stripes.
func (s *Sim) chargeOSTs(f *File, off, size int64) {
	if f.mount.FSType != "lustre" || size <= 0 {
		return
	}
	ss := f.layout.StripeSize
	w := int64(f.layout.StripeWidth)
	if ss <= 0 || w <= 0 {
		return
	}
	for cur := off; cur < off+size; {
		stripe := cur / ss
		ost := (int64(f.layout.StripeOffset) + stripe%w) % int64(s.cfg.FS.NumOSTs)
		chunkEnd := (stripe + 1) * ss
		if chunkEnd > off+size {
			chunkEnd = off + size
		}
		s.ostBytes[ost] += chunkEnd - cur
		cur = chunkEnd
	}
}

func (s *Sim) recordOpen(f *File, rank int, iface Iface, collective bool) {
	start, end := s.advance(rank, s.metaCost())
	switch iface {
	case POSIX:
		st := s.state(darshan.ModulePOSIX, f, rank)
		st.rec.AddC("POSIX_OPENS", 1)
		st.rec.AddF("POSIX_F_META_TIME", end-start)
		stampOpen(st.rec, "POSIX", start, end)
	case STDIO:
		st := s.state(darshan.ModuleSTDIO, f, rank)
		st.rec.AddC("STDIO_OPENS", 1)
		st.rec.AddF("STDIO_F_META_TIME", end-start)
		stampOpen(st.rec, "STDIO", start, end)
	case MPIIndep, MPIColl:
		st := s.state(darshan.ModuleMPIIO, f, rank)
		if collective || iface == MPIColl {
			st.rec.AddC("MPIIO_COLL_OPENS", 1)
		} else {
			st.rec.AddC("MPIIO_INDEP_OPENS", 1)
		}
		st.rec.AddF("MPIIO_F_META_TIME", end-start)
		stampOpen(st.rec, "MPIIO", start, end)
		// MPI-IO opens the file underneath via POSIX.
		pst := s.state(darshan.ModulePOSIX, f, rank)
		pst.rec.AddC("POSIX_OPENS", 1)
		stampOpen(pst.rec, "POSIX", start, end)
	}
	if f.mount.FSType == "lustre" {
		s.lustreRecord(f)
	}
}

// stampOpen sets first-open / last-close style timestamps.
func stampOpen(rec *darshan.FileRecord, prefix string, start, end float64) {
	name := prefix + "_F_OPEN_START_TIMESTAMP"
	if v, ok := rec.FCounters[name]; !ok || start < v {
		rec.SetF(name, start)
	}
	rec.MaxF(prefix+"_F_OPEN_END_TIMESTAMP", end)
}

// lustreRecord materializes the LUSTRE module record for a striped file.
func (s *Sim) lustreRecord(f *File) {
	st := s.state(darshan.ModuleLustre, f, darshan.SharedRank)
	rec := st.rec
	rec.SetC("LUSTRE_OSTS", int64(s.cfg.FS.NumOSTs))
	rec.SetC("LUSTRE_MDTS", int64(s.cfg.FS.NumMDTs))
	rec.SetC("LUSTRE_STRIPE_OFFSET", int64(f.layout.StripeOffset))
	rec.SetC("LUSTRE_STRIPE_SIZE", f.layout.StripeSize)
	rec.SetC("LUSTRE_STRIPE_WIDTH", int64(f.layout.StripeWidth))
	w := f.layout.StripeWidth
	if w > darshan.MaxLustreOSTs {
		w = darshan.MaxLustreOSTs
	}
	for i := 0; i < w; i++ {
		ost := (f.layout.StripeOffset + i) % s.cfg.FS.NumOSTs
		rec.SetC(fmt.Sprintf("LUSTRE_OST_ID_%d", i), int64(ost))
	}
}

// Stat issues a stat/fstat metadata call from rank.
func (f *File) Stat(rank int) {
	f.ensureOpen(rank)
	start, end := f.s.advance(rank, f.s.metaCost())
	switch f.iface {
	case STDIO:
		st := f.s.state(darshan.ModuleSTDIO, f, rank)
		st.rec.AddF("STDIO_F_META_TIME", end-start)
	default:
		st := f.s.state(darshan.ModulePOSIX, f, rank)
		st.rec.AddC("POSIX_STATS", 1)
		st.rec.AddF("POSIX_F_META_TIME", end-start)
	}
}

// Fsync flushes rank's writes to stable storage.
func (f *File) Fsync(rank int) {
	f.ensureOpen(rank)
	start, end := f.s.advance(rank, 3*f.s.metaCost())
	switch f.iface {
	case STDIO:
		st := f.s.state(darshan.ModuleSTDIO, f, rank)
		st.rec.AddC("STDIO_FLUSHES", 1)
		st.rec.AddF("STDIO_F_META_TIME", end-start)
	default:
		st := f.s.state(darshan.ModulePOSIX, f, rank)
		st.rec.AddC("POSIX_FSYNCS", 1)
		st.rec.AddF("POSIX_F_META_TIME", end-start)
	}
}

// ReadAt reads size bytes at offset off from rank.
func (f *File) ReadAt(rank int, off, size int64) {
	f.dataOp(rank, opRead, off, size)
}

// WriteAt writes size bytes at offset off from rank.
func (f *File) WriteAt(rank int, off, size int64) {
	f.dataOp(rank, opWrite, off, size)
}

// Read reads size bytes at the rank's current position.
func (f *File) Read(rank int, size int64) {
	f.dataOp(rank, opRead, f.cursorFor(rank).pos, size)
}

// Write writes size bytes at the rank's current position.
func (f *File) Write(rank int, size int64) {
	f.dataOp(rank, opWrite, f.cursorFor(rank).pos, size)
}

func (f *File) cursorFor(rank int) *cursor {
	c, ok := f.cur[rank]
	if !ok {
		panic(fmt.Sprintf("iosim: rank %d has not opened %s", rank, f.path))
	}
	return c
}

func (f *File) ensureOpen(rank int) {
	if f.closed {
		panic("iosim: operation on closed file " + f.path)
	}
	f.cursorFor(rank)
}

func (f *File) dataOp(rank int, kind opKind, off, size int64) {
	f.ensureOpen(rank)
	if size < 0 || off < 0 {
		panic("iosim: negative offset or size")
	}
	switch f.iface {
	case POSIX:
		f.posixOp(rank, kind, off, size, 1)
	case STDIO:
		f.stdioOp(rank, kind, off, size)
	case MPIIndep:
		f.mpiOp(rank, kind, off, size, false)
	case MPIColl:
		f.mpiOp(rank, kind, off, size, true)
	}
}

// posixOp folds one POSIX transfer into the counters. weight scales the
// operation count (used by collective aggregation which issues one POSIX op
// on behalf of several MPI-IO calls).
func (f *File) posixOp(rank int, kind opKind, off, size int64, weight int64) {
	s := f.s
	st := s.state(darshan.ModulePOSIX, f, rank)
	rec := st.rec
	c := f.cursorFor(rank)

	sequential := c.started && off >= c.lastEnd
	consecutive := c.started && off == c.lastEnd
	if c.started && off != c.lastEnd {
		rec.AddC("POSIX_SEEKS", 1)
		if stride := off - c.lastEnd; stride != 0 {
			st.strides[abs64(stride)]++
		}
	}
	if c.started && c.lastOp != opNone && c.lastOp != kind {
		rec.AddC("POSIX_RW_SWITCHES", 1)
	}

	cost := s.dataCost(f, size, sequential || !c.started)
	start, end := s.advance(rank, cost)
	st.ioTime += end - start
	s.chargeOSTs(f, off, size)
	s.recordDXT("X_POSIX", rank, f.path, kind, off, size, start, end)

	bucket := darshan.SizeBucketIndex(size)
	align := rec.C("POSIX_FILE_ALIGNMENT")
	if align > 0 && off%align != 0 {
		rec.AddC("POSIX_FILE_NOT_ALIGNED", weight)
	}
	if size%8 != 0 {
		rec.AddC("POSIX_MEM_NOT_ALIGNED", weight)
	}
	st.accesses[size] += weight

	switch kind {
	case opRead:
		rec.AddC("POSIX_READS", weight)
		rec.AddC("POSIX_BYTES_READ", size*weight)
		rec.MaxC("POSIX_MAX_BYTE_READ", off+size-1)
		if consecutive {
			rec.AddC("POSIX_CONSEC_READS", weight)
		}
		if sequential {
			rec.AddC("POSIX_SEQ_READS", weight)
		}
		rec.AddC(posixHistName("READ", bucket), weight)
		rec.AddF("POSIX_F_READ_TIME", end-start)
		rec.MaxF("POSIX_F_MAX_READ_TIME", end-start)
		if v, ok := rec.FCounters["POSIX_F_READ_START_TIMESTAMP"]; !ok || start < v {
			rec.SetF("POSIX_F_READ_START_TIMESTAMP", start)
		}
		rec.MaxF("POSIX_F_READ_END_TIMESTAMP", end)
	case opWrite:
		rec.AddC("POSIX_WRITES", weight)
		rec.AddC("POSIX_BYTES_WRITTEN", size*weight)
		rec.MaxC("POSIX_MAX_BYTE_WRITTEN", off+size-1)
		if consecutive {
			rec.AddC("POSIX_CONSEC_WRITES", weight)
		}
		if sequential {
			rec.AddC("POSIX_SEQ_WRITES", weight)
		}
		rec.AddC(posixHistName("WRITE", bucket), weight)
		rec.AddF("POSIX_F_WRITE_TIME", end-start)
		rec.MaxF("POSIX_F_MAX_WRITE_TIME", end-start)
		if v, ok := rec.FCounters["POSIX_F_WRITE_START_TIMESTAMP"]; !ok || start < v {
			rec.SetF("POSIX_F_WRITE_START_TIMESTAMP", start)
		}
		rec.MaxF("POSIX_F_WRITE_END_TIMESTAMP", end)
	}

	c.pos = off + size
	c.lastEnd = off + size
	c.lastOp = kind
	c.started = true
}

func (f *File) stdioOp(rank int, kind opKind, off, size int64) {
	s := f.s
	st := s.state(darshan.ModuleSTDIO, f, rank)
	rec := st.rec
	c := f.cursorFor(rank)

	if c.started && off != c.lastEnd {
		rec.AddC("STDIO_SEEKS", 1)
	}
	sequential := !c.started || off >= c.lastEnd
	cost := s.dataCost(f, size, sequential)
	start, end := s.advance(rank, cost)
	st.ioTime += end - start
	s.chargeOSTs(f, off, size)
	s.recordDXT("X_STDIO", rank, f.path, kind, off, size, start, end)
	st.accesses[size]++

	switch kind {
	case opRead:
		rec.AddC("STDIO_READS", 1)
		rec.AddC("STDIO_BYTES_READ", size)
		rec.MaxC("STDIO_MAX_BYTE_READ", off+size-1)
		rec.AddF("STDIO_F_READ_TIME", end-start)
		if v, ok := rec.FCounters["STDIO_F_READ_START_TIMESTAMP"]; !ok || start < v {
			rec.SetF("STDIO_F_READ_START_TIMESTAMP", start)
		}
		rec.MaxF("STDIO_F_READ_END_TIMESTAMP", end)
	case opWrite:
		rec.AddC("STDIO_WRITES", 1)
		rec.AddC("STDIO_BYTES_WRITTEN", size)
		rec.MaxC("STDIO_MAX_BYTE_WRITTEN", off+size-1)
		rec.AddF("STDIO_F_WRITE_TIME", end-start)
		if v, ok := rec.FCounters["STDIO_F_WRITE_START_TIMESTAMP"]; !ok || start < v {
			rec.SetF("STDIO_F_WRITE_START_TIMESTAMP", start)
		}
		rec.MaxF("STDIO_F_WRITE_END_TIMESTAMP", end)
	}

	c.pos = off + size
	c.lastEnd = off + size
	c.lastOp = kind
	c.started = true
}

// mpiOp records the MPI-IO layer counters and models the underlying POSIX
// traffic. Independent operations map 1:1 onto POSIX transfers. Collective
// operations are recorded per-rank at the MPI-IO layer here and aggregated
// into two-phase POSIX transfers by CollectiveWrite/CollectiveRead; a
// collective op issued through this path (single rank) degenerates to an
// independent POSIX transfer.
func (f *File) mpiOp(rank int, kind opKind, off, size int64, collective bool) {
	s := f.s
	st := s.state(darshan.ModuleMPIIO, f, rank)
	rec := st.rec

	bucket := darshan.SizeBucketIndex(size)
	st.accesses[size]++
	switch kind {
	case opRead:
		if collective {
			rec.AddC("MPIIO_COLL_READS", 1)
		} else {
			rec.AddC("MPIIO_INDEP_READS", 1)
		}
		rec.AddC("MPIIO_BYTES_READ", size)
		rec.AddC(mpiioHistName("READ_AGG", bucket), 1)
	case opWrite:
		if collective {
			rec.AddC("MPIIO_COLL_WRITES", 1)
		} else {
			rec.AddC("MPIIO_INDEP_WRITES", 1)
		}
		rec.AddC("MPIIO_BYTES_WRITTEN", size)
		rec.AddC(mpiioHistName("WRITE_AGG", bucket), 1)
	}

	f.posixOp(rank, kind, off, size, 1)

	// Attribute the (already advanced) transfer time to the MPI-IO layer
	// as well so per-layer timing stays consistent.
	pst := s.state(darshan.ModulePOSIX, f, rank)
	switch kind {
	case opRead:
		rec.SetF("MPIIO_F_READ_TIME", pst.rec.F("POSIX_F_READ_TIME"))
	case opWrite:
		rec.SetF("MPIIO_F_WRITE_TIME", pst.rec.F("POSIX_F_WRITE_TIME"))
	}
}

// CollectiveWrite performs one MPI_File_write_all across every rank of the
// file's communicator: each rank contributes size bytes at
// base + rank*size. Two-phase collective buffering is modeled by having
// min(stripeWidth, nprocs) aggregator ranks issue large stripe-aligned
// POSIX writes covering the combined extent.
func (f *File) CollectiveWrite(base, sizePerRank int64) {
	f.collectiveOp(opWrite, base, sizePerRank)
}

// CollectiveRead performs one MPI_File_read_all across every rank (see
// CollectiveWrite).
func (f *File) CollectiveRead(base, sizePerRank int64) {
	f.collectiveOp(opRead, base, sizePerRank)
}

func (f *File) collectiveOp(kind opKind, base, sizePerRank int64) {
	s := f.s
	if f.iface != MPIColl {
		panic("iosim: collective op on non-collective file " + f.path)
	}
	n := int64(s.cfg.NProcs)
	total := n * sizePerRank
	bucket := darshan.SizeBucketIndex(sizePerRank)

	// MPI-IO layer: every rank records one collective call.
	for rank := 0; rank < s.cfg.NProcs; rank++ {
		f.ensureOpen(rank)
		st := s.state(darshan.ModuleMPIIO, f, rank)
		st.accesses[sizePerRank]++
		switch kind {
		case opRead:
			st.rec.AddC("MPIIO_COLL_READS", 1)
			st.rec.AddC("MPIIO_BYTES_READ", sizePerRank)
			st.rec.AddC(mpiioHistName("READ_AGG", bucket), 1)
		case opWrite:
			st.rec.AddC("MPIIO_COLL_WRITES", 1)
			st.rec.AddC("MPIIO_BYTES_WRITTEN", sizePerRank)
			st.rec.AddC(mpiioHistName("WRITE_AGG", bucket), 1)
		}
	}

	// Two-phase exchange: a small synchronization cost on every rank.
	for rank := 0; rank < s.cfg.NProcs; rank++ {
		s.advance(rank, s.cfg.OpLatency)
	}

	// Aggregators issue the POSIX transfers in stripe-sized chunks.
	aggs := f.layout.StripeWidth
	if aggs < 1 {
		aggs = 1
	}
	if aggs > s.cfg.NProcs {
		aggs = s.cfg.NProcs
	}
	chunk := f.layout.StripeSize
	if chunk <= 0 {
		chunk = 1 << 20
	}
	var off int64
	for i := 0; off < total; i++ {
		sz := chunk
		if off+sz > total {
			sz = total - off
		}
		agg := i % aggs
		f.posixOp(agg, kind, base+off, sz, 1)
		off += sz
	}
	// MPI-IO time mirrors the slowest aggregator's layer time.
	for rank := 0; rank < aggs; rank++ {
		pst := s.state(darshan.ModulePOSIX, f, rank)
		mst := s.state(darshan.ModuleMPIIO, f, rank)
		switch kind {
		case opRead:
			mst.rec.SetF("MPIIO_F_READ_TIME", pst.rec.F("POSIX_F_READ_TIME"))
		case opWrite:
			mst.rec.SetF("MPIIO_F_WRITE_TIME", pst.rec.F("POSIX_F_WRITE_TIME"))
		}
	}
}

// Close closes the file on the given ranks (all registered ranks when none
// are specified).
func (f *File) Close(ranks ...int) {
	if f.closed {
		return
	}
	if len(ranks) == 0 {
		for r := range f.ranks {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks) // deterministic close order (and rng draw order)
	}
	for _, rank := range ranks {
		f.cursorFor(rank)
		start, end := f.s.advance(rank, f.s.metaCost())
		switch f.iface {
		case STDIO:
			st := f.s.state(darshan.ModuleSTDIO, f, rank)
			st.rec.AddF("STDIO_F_META_TIME", end-start)
			st.rec.MaxF("STDIO_F_CLOSE_END_TIMESTAMP", end)
			if v, ok := st.rec.FCounters["STDIO_F_CLOSE_START_TIMESTAMP"]; !ok || start < v {
				st.rec.SetF("STDIO_F_CLOSE_START_TIMESTAMP", start)
			}
		case MPIIndep, MPIColl:
			st := f.s.state(darshan.ModuleMPIIO, f, rank)
			st.rec.AddF("MPIIO_F_META_TIME", end-start)
			st.rec.MaxF("MPIIO_F_CLOSE_END_TIMESTAMP", end)
			pst := f.s.state(darshan.ModulePOSIX, f, rank)
			pst.rec.MaxF("POSIX_F_CLOSE_END_TIMESTAMP", end)
		default:
			st := f.s.state(darshan.ModulePOSIX, f, rank)
			st.rec.AddF("POSIX_F_META_TIME", end-start)
			st.rec.MaxF("POSIX_F_CLOSE_END_TIMESTAMP", end)
			if v, ok := st.rec.FCounters["POSIX_F_CLOSE_START_TIMESTAMP"]; !ok || start < v {
				st.rec.SetF("POSIX_F_CLOSE_START_TIMESTAMP", start)
			}
		}
	}
}

func posixHistName(op string, bucket int) string {
	return "POSIX_SIZE_" + op + "_" + bucketSuffix(bucket)
}

func mpiioHistName(op string, bucket int) string {
	return "MPIIO_SIZE_" + op + "_" + bucketSuffix(bucket)
}

func bucketSuffix(i int) string {
	suffixes := []string{
		"0_100", "100_1K", "1K_10K", "10K_100K", "100K_1M",
		"1M_4M", "4M_10M", "10M_100M", "100M_1G", "1G_PLUS",
	}
	return suffixes[i]
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
