package iosim

import (
	"bytes"
	"testing"

	"ioagent/internal/darshan"
)

func newTestSim(nprocs int) *Sim {
	return New(Config{Seed: 7, NProcs: nprocs, UsesMPI: true, Exe: "/bin/test.x"})
}

func TestPosixSequentialWriteCounters(t *testing.T) {
	s := newTestSim(1)
	f := s.Open("/scratch/out.dat", 0, POSIX, nil)
	for i := int64(0); i < 10; i++ {
		f.WriteAt(0, i*1024, 1024)
	}
	f.Close()
	log := s.Finalize()

	rec := log.Module(darshan.ModulePOSIX).Find("/scratch/out.dat", 0)
	if rec == nil {
		t.Fatal("missing POSIX record")
	}
	if got := rec.C("POSIX_WRITES"); got != 10 {
		t.Errorf("POSIX_WRITES = %d, want 10", got)
	}
	if got := rec.C("POSIX_BYTES_WRITTEN"); got != 10240 {
		t.Errorf("POSIX_BYTES_WRITTEN = %d, want 10240", got)
	}
	// 9 follow-on writes are consecutive and sequential.
	if got := rec.C("POSIX_CONSEC_WRITES"); got != 9 {
		t.Errorf("POSIX_CONSEC_WRITES = %d, want 9", got)
	}
	if got := rec.C("POSIX_SEQ_WRITES"); got != 9 {
		t.Errorf("POSIX_SEQ_WRITES = %d, want 9", got)
	}
	if got := rec.C("POSIX_SIZE_WRITE_1K_10K"); got != 10 {
		t.Errorf("1K-10K histogram = %d, want 10", got)
	}
	if got := rec.C("POSIX_MAX_BYTE_WRITTEN"); got != 10*1024-1 {
		t.Errorf("POSIX_MAX_BYTE_WRITTEN = %d, want %d", got, 10*1024-1)
	}
	if rec.C("POSIX_OPENS") != 1 {
		t.Errorf("POSIX_OPENS = %d, want 1", rec.C("POSIX_OPENS"))
	}
	if rec.F("POSIX_F_WRITE_TIME") <= 0 {
		t.Error("POSIX_F_WRITE_TIME should be positive")
	}
	// Common access size: 1024 x10.
	if rec.C("POSIX_ACCESS1_ACCESS") != 1024 || rec.C("POSIX_ACCESS1_COUNT") != 10 {
		t.Errorf("ACCESS1 = (%d,%d), want (1024,10)",
			rec.C("POSIX_ACCESS1_ACCESS"), rec.C("POSIX_ACCESS1_COUNT"))
	}
}

func TestRandomAccessDetection(t *testing.T) {
	s := newTestSim(1)
	f := s.Open("/scratch/rand.dat", 0, POSIX, nil)
	// Write backwards: each op lands before the previous one.
	offs := []int64{9000, 6000, 3000, 0}
	for _, o := range offs {
		f.WriteAt(0, o, 100)
	}
	log := s.Finalize()
	rec := log.Module(darshan.ModulePOSIX).Find("/scratch/rand.dat", 0)
	if got := rec.C("POSIX_SEQ_WRITES"); got != 0 {
		t.Errorf("SEQ_WRITES = %d, want 0 for backwards pattern", got)
	}
	if got := rec.C("POSIX_SEEKS"); got != 3 {
		t.Errorf("SEEKS = %d, want 3", got)
	}
}

func TestRWSwitches(t *testing.T) {
	s := newTestSim(1)
	f := s.Open("/scratch/rw.dat", 0, POSIX, nil)
	f.WriteAt(0, 0, 100)
	f.ReadAt(0, 100, 100)
	f.WriteAt(0, 200, 100)
	log := s.Finalize()
	rec := log.Module(darshan.ModulePOSIX).Find("/scratch/rw.dat", 0)
	if got := rec.C("POSIX_RW_SWITCHES"); got != 2 {
		t.Errorf("RW_SWITCHES = %d, want 2", got)
	}
}

func TestAlignment(t *testing.T) {
	s := New(Config{Seed: 1, NProcs: 1})
	lay := &Layout{StripeSize: 1 << 20, StripeWidth: 1}
	f := s.Open("/scratch/align.dat", 0, POSIX, lay)
	f.WriteAt(0, 0, 1<<20)       // aligned
	f.WriteAt(0, 1<<20, 1<<20)   // aligned
	f.WriteAt(0, 2<<20+13, 4096) // unaligned offset
	log := s.Finalize()
	rec := log.Module(darshan.ModulePOSIX).Find("/scratch/align.dat", 0)
	if got := rec.C("POSIX_FILE_NOT_ALIGNED"); got != 1 {
		t.Errorf("FILE_NOT_ALIGNED = %d, want 1", got)
	}
	if got := rec.C("POSIX_FILE_ALIGNMENT"); got != 1<<20 {
		t.Errorf("FILE_ALIGNMENT = %d, want 1MiB", got)
	}
}

func TestSharedFileReduction(t *testing.T) {
	s := newTestSim(4)
	f := s.OpenShared("/scratch/shared.dat", POSIX, false, nil)
	for rank := 0; rank < 4; rank++ {
		f.WriteAt(rank, int64(rank)*4096, 4096)
	}
	log := s.Finalize()
	md := log.Module(darshan.ModulePOSIX)
	recs := 0
	for _, r := range md.Records {
		if r.Name == "/scratch/shared.dat" {
			recs++
			if r.Rank != darshan.SharedRank {
				t.Errorf("shared file record has rank %d, want %d", r.Rank, darshan.SharedRank)
			}
			if got := r.C("POSIX_WRITES"); got != 4 {
				t.Errorf("reduced POSIX_WRITES = %d, want 4", got)
			}
			if got := r.C("POSIX_BYTES_WRITTEN"); got != 4*4096 {
				t.Errorf("reduced BYTES_WRITTEN = %d, want %d", got, 4*4096)
			}
			if got := r.C("POSIX_OPENS"); got != 4 {
				t.Errorf("reduced OPENS = %d, want 4", got)
			}
			fr := r.C("POSIX_FASTEST_RANK")
			sr := r.C("POSIX_SLOWEST_RANK")
			if fr < 0 || fr > 3 || sr < 0 || sr > 3 {
				t.Errorf("fastest/slowest ranks out of range: %d/%d", fr, sr)
			}
			if r.F("POSIX_F_SLOWEST_RANK_TIME") < r.F("POSIX_F_FASTEST_RANK_TIME") {
				t.Error("slowest rank time < fastest rank time")
			}
		}
	}
	if recs != 1 {
		t.Fatalf("found %d records for shared file, want 1 reduced record", recs)
	}
}

func TestRankSkewProducesImbalance(t *testing.T) {
	skew := []float64{1, 1, 1, 8}
	s := New(Config{Seed: 3, NProcs: 4, UsesMPI: true, RankSkew: skew})
	f := s.OpenShared("/scratch/imb.dat", POSIX, false, nil)
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < 20; i++ {
			f.WriteAt(rank, int64(rank*20+i)*65536, 65536)
		}
	}
	log := s.Finalize()
	rec := log.Module(darshan.ModulePOSIX).Find("/scratch/imb.dat", darshan.SharedRank)
	if rec == nil {
		t.Fatal("missing shared record")
	}
	if got := rec.C("POSIX_SLOWEST_RANK"); got != 3 {
		t.Errorf("SLOWEST_RANK = %d, want 3 (the skewed rank)", got)
	}
	if rec.F("POSIX_F_VARIANCE_RANK_TIME") <= 0 {
		t.Error("variance of rank time should be positive under skew")
	}
}

func TestMPICollectiveTwoPhase(t *testing.T) {
	lay := &Layout{StripeSize: 1 << 20, StripeWidth: 4}
	s := New(Config{Seed: 5, NProcs: 8, UsesMPI: true,
		FS: LustreConfig{MountPoint: "/scratch", NumOSTs: 16, DefaultStripeSize: 1 << 20, DefaultStripeWidth: 1, PerOSTBandwidth: 500e6}})
	f := s.OpenShared("/scratch/coll.dat", MPIColl, true, lay)
	f.CollectiveWrite(0, 1<<20) // each of 8 ranks contributes 1 MiB
	log := s.Finalize()

	mrec := log.Module(darshan.ModuleMPIIO).Find("/scratch/coll.dat", darshan.SharedRank)
	if mrec == nil {
		t.Fatal("missing MPI-IO shared record")
	}
	if got := mrec.C("MPIIO_COLL_WRITES"); got != 8 {
		t.Errorf("MPIIO_COLL_WRITES = %d, want 8", got)
	}
	if got := mrec.C("MPIIO_COLL_OPENS"); got != 8 {
		t.Errorf("MPIIO_COLL_OPENS = %d, want 8", got)
	}
	if got := mrec.C("MPIIO_BYTES_WRITTEN"); got != 8<<20 {
		t.Errorf("MPIIO_BYTES_WRITTEN = %d, want 8MiB", got)
	}

	prec := log.Module(darshan.ModulePOSIX).Find("/scratch/coll.dat", darshan.SharedRank)
	if prec == nil {
		// All POSIX ops may have landed on fewer ranks than opened;
		// opens happen on all ranks so the record must be shared.
		t.Fatal("missing POSIX shared record")
	}
	// Two-phase: total bytes equal, each POSIX transfer is stripe-sized
	// (1 MiB), all aligned.
	if got := prec.C("POSIX_BYTES_WRITTEN"); got != 8<<20 {
		t.Errorf("POSIX_BYTES_WRITTEN = %d, want 8MiB", got)
	}
	if got := prec.C("POSIX_WRITES"); got != 8 {
		t.Errorf("POSIX_WRITES = %d, want 8 stripe-sized transfers", got)
	}
	if got := prec.C("POSIX_FILE_NOT_ALIGNED"); got != 0 {
		t.Errorf("collective writes should be aligned, FILE_NOT_ALIGNED = %d", got)
	}
}

func TestStdioCounters(t *testing.T) {
	s := newTestSim(1)
	f := s.Open("/scratch/log.txt", 0, STDIO, nil)
	f.WriteAt(0, 0, 100)
	f.WriteAt(0, 100, 100)
	f.Fsync(0)
	f.Close()
	log := s.Finalize()
	rec := log.Module(darshan.ModuleSTDIO).Find("/scratch/log.txt", 0)
	if rec == nil {
		t.Fatal("missing STDIO record")
	}
	if rec.C("STDIO_OPENS") != 1 || rec.C("STDIO_WRITES") != 2 {
		t.Errorf("STDIO opens/writes = %d/%d, want 1/2", rec.C("STDIO_OPENS"), rec.C("STDIO_WRITES"))
	}
	if rec.C("STDIO_BYTES_WRITTEN") != 200 {
		t.Errorf("STDIO_BYTES_WRITTEN = %d, want 200", rec.C("STDIO_BYTES_WRITTEN"))
	}
	if rec.C("STDIO_FLUSHES") != 1 {
		t.Errorf("STDIO_FLUSHES = %d, want 1", rec.C("STDIO_FLUSHES"))
	}
}

func TestLustreModuleRecords(t *testing.T) {
	s := newTestSim(2)
	lay := &Layout{StripeSize: 4 << 20, StripeWidth: 8}
	f := s.OpenShared("/scratch/striped.dat", POSIX, false, lay)
	f.WriteAt(0, 0, 1024)
	log := s.Finalize()
	rec := log.Module(darshan.ModuleLustre).Find("/scratch/striped.dat", darshan.SharedRank)
	if rec == nil {
		t.Fatal("missing LUSTRE record")
	}
	if rec.C("LUSTRE_STRIPE_SIZE") != 4<<20 {
		t.Errorf("STRIPE_SIZE = %d, want 4MiB", rec.C("LUSTRE_STRIPE_SIZE"))
	}
	if rec.C("LUSTRE_STRIPE_WIDTH") != 8 {
		t.Errorf("STRIPE_WIDTH = %d, want 8", rec.C("LUSTRE_STRIPE_WIDTH"))
	}
	if rec.C("LUSTRE_OSTS") != 16 {
		t.Errorf("LUSTRE_OSTS = %d, want 16", rec.C("LUSTRE_OSTS"))
	}
	// OST IDs 0..7 present and distinct.
	seen := map[int64]bool{}
	for i := 0; i < 8; i++ {
		id := rec.C(lustreOSTName(i))
		if seen[id] {
			t.Errorf("duplicate OST id %d", id)
		}
		seen[id] = true
	}
}

func lustreOSTName(i int) string {
	return "LUSTRE_OST_ID_" + string(rune('0'+i))
}

func TestNonLustreFileHasNoLustreRecord(t *testing.T) {
	s := New(Config{Seed: 1, NProcs: 1,
		ExtraMounts: []darshan.Mount{{Point: "/home", FSType: "nfs"}}})
	f := s.Open("/home/user/cfg.ini", 0, POSIX, nil)
	f.ReadAt(0, 0, 512)
	log := s.Finalize()
	if log.Module(darshan.ModuleLustre).Find("/home/user/cfg.ini", darshan.SharedRank) != nil {
		t.Error("non-Lustre file must not appear in the LUSTRE module")
	}
	prec := log.Module(darshan.ModulePOSIX).Find("/home/user/cfg.ini", 0)
	if prec.FSType != "nfs" {
		t.Errorf("FSType = %q, want nfs", prec.FSType)
	}
	if prec.C("POSIX_FILE_ALIGNMENT") != 4096 {
		t.Errorf("non-Lustre alignment = %d, want 4096", prec.C("POSIX_FILE_ALIGNMENT"))
	}
}

func TestOSTByteAccounting(t *testing.T) {
	s := New(Config{Seed: 1, NProcs: 1,
		FS: LustreConfig{MountPoint: "/scratch", NumOSTs: 4, DefaultStripeSize: 1 << 20, DefaultStripeWidth: 1, PerOSTBandwidth: 1e9}})
	lay := &Layout{StripeSize: 1 << 20, StripeWidth: 2, StripeOffset: 0}
	f := s.Open("/scratch/w2.dat", 0, POSIX, lay)
	f.WriteAt(0, 0, 4<<20) // 4 stripes alternate between OST 0 and 1
	bytes := s.ostBytes
	if bytes[0] != 2<<20 || bytes[1] != 2<<20 {
		t.Errorf("OST bytes = %v, want 2MiB on OSTs 0 and 1", bytes)
	}
	if bytes[2] != 0 || bytes[3] != 0 {
		t.Errorf("OSTs 2,3 should be idle, got %v", bytes)
	}
	s.Finalize()
}

func TestSmallIOCostsMoreThanLargeIO(t *testing.T) {
	run := func(xfer int64) float64 {
		s := New(Config{Seed: 9, NProcs: 1})
		f := s.Open("/scratch/c.dat", 0, POSIX, nil)
		total := int64(16 << 20)
		for off := int64(0); off < total; off += xfer {
			f.WriteAt(0, off, xfer)
		}
		log := s.Finalize()
		return log.Job.RunTime
	}
	small := run(4 << 10)
	large := run(4 << 20)
	if small <= large {
		t.Errorf("small transfers (%.3fs) should be slower than large (%.3fs)", small, large)
	}
}

func TestStripeWidthSpeedsUpLargeIO(t *testing.T) {
	run := func(width int) float64 {
		s := New(Config{Seed: 9, NProcs: 1})
		lay := &Layout{StripeSize: 1 << 20, StripeWidth: width}
		f := s.Open("/scratch/w.dat", 0, POSIX, lay)
		for i := 0; i < 16; i++ {
			f.WriteAt(0, int64(i)*(8<<20), 8<<20)
		}
		log := s.Finalize()
		return log.Job.RunTime
	}
	narrow := run(1)
	wide := run(8)
	if wide >= narrow {
		t.Errorf("wide striping (%.3fs) should beat width-1 (%.3fs) for large I/O", wide, narrow)
	}
}

func TestFinalizeLogRoundTrips(t *testing.T) {
	s := newTestSim(4)
	WriteShared(s, "/scratch/a.dat", MPIColl, nil, 8<<20, 1<<20)
	FilePerProcessWrite(s, "/scratch/fpp.%d.dat", POSIX, nil, 1<<20, 1<<16)
	cfg := s.Open("/scratch/run.cfg", 0, STDIO, nil) // rank 0 reads a config file
	cfg.ReadAt(0, 0, 2048)
	cfg.Close(0)
	log := s.Finalize()

	if err := log.Validate(); err != nil {
		t.Fatalf("generated log fails validation: %v", err)
	}
	var buf bytes.Buffer
	if err := darshan.Encode(&buf, log); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := darshan.Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(back.ModuleList()) != len(log.ModuleList()) {
		t.Errorf("module lists differ after round trip")
	}
	if _, err := darshan.TextString(log); err != nil {
		t.Fatalf("TextString: %v", err)
	}
}

func TestMetadataStorm(t *testing.T) {
	s := newTestSim(2)
	MetadataStorm(s, "/scratch/meta", 5, 3)
	log := s.Finalize()
	md := log.Module(darshan.ModulePOSIX)
	if got := md.SumC("POSIX_STATS"); got != 2*5*3 {
		t.Errorf("total stats = %d, want 30", got)
	}
	if got := md.SumC("POSIX_OPENS"); got != 10 {
		t.Errorf("total opens = %d, want 10", got)
	}
	if md.SumF("POSIX_F_META_TIME") <= 0 {
		t.Error("metadata time should accumulate")
	}
}

func TestDeterminism(t *testing.T) {
	gen := func() string {
		s := New(Config{Seed: 11, NProcs: 4, UsesMPI: true})
		f := s.OpenShared("/scratch/d.dat", POSIX, false, nil)
		RandomReads(s, f, 10, 4096, 1<<20)
		log := s.Finalize()
		text, err := darshan.TextString(log)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	if gen() != gen() {
		t.Error("same seed must produce byte-identical logs")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("bad rank", func() {
		s := newTestSim(2)
		s.Open("/scratch/x", 5, POSIX, nil)
	})
	assertPanics("op after finalize", func() {
		s := newTestSim(1)
		s.Finalize()
		s.Open("/scratch/x", 0, POSIX, nil)
	})
	assertPanics("collective on posix file", func() {
		s := newTestSim(2)
		f := s.OpenShared("/scratch/x", POSIX, false, nil)
		f.CollectiveWrite(0, 1024)
	})
	assertPanics("negative size", func() {
		s := newTestSim(1)
		f := s.Open("/scratch/x", 0, POSIX, nil)
		f.WriteAt(0, 0, -1)
	})
}
