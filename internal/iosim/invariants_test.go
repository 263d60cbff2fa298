package iosim

import (
	"math/rand"
	"testing"

	"ioagent/internal/darshan"
)

// randomWorkload scripts an arbitrary but valid mix of operations and
// returns the finalized log plus the ground-truth byte totals.
func randomWorkload(seed int64) (*darshan.Log, int64, int64, *Sim) {
	rng := rand.New(rand.NewSource(seed))
	nprocs := 1 + rng.Intn(8)
	s := New(Config{Seed: seed, NProcs: nprocs, UsesMPI: true})
	var wrote, read int64

	nfiles := 1 + rng.Intn(4)
	for fi := 0; fi < nfiles; fi++ {
		shared := rng.Intn(2) == 0 && nprocs > 1
		lay := &Layout{StripeSize: 1 << uint(17+rng.Intn(4)), StripeWidth: 1 + rng.Intn(4)}
		var f *File
		path := "/scratch/rand/f" + string(rune('a'+fi))
		if shared {
			f = s.OpenShared(path, POSIX, false, lay)
		} else {
			f = s.Open(path, rng.Intn(nprocs), POSIX, lay)
		}
		ops := 1 + rng.Intn(40)
		for i := 0; i < ops; i++ {
			rank := 0
			if shared {
				rank = rng.Intn(nprocs)
			} else {
				for r := range f.ranks {
					rank = r
				}
			}
			size := int64(1 + rng.Intn(1<<20))
			off := rng.Int63n(64 << 20)
			if rng.Intn(2) == 0 {
				f.WriteAt(rank, off, size)
				wrote += size
			} else {
				f.ReadAt(rank, off, size)
				read += size
			}
		}
		f.Close()
	}
	return s.Finalize(), read, wrote, s
}

// TestByteConservation: the log's byte totals equal the bytes the workload
// actually moved, and per-OST accounting matches the Lustre traffic.
func TestByteConservation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		log, read, wrote, sim := randomWorkload(seed)
		gotRead, gotWrote := log.TotalBytes()
		if gotRead != read || gotWrote != wrote {
			t.Fatalf("seed %d: totals (%d,%d), want (%d,%d)", seed, gotRead, gotWrote, read, wrote)
		}
		var ost int64
		for _, b := range sim.ostBytes {
			ost += b
		}
		if ost != read+wrote {
			t.Fatalf("seed %d: OST bytes %d != moved bytes %d", seed, ost, read+wrote)
		}
	}
}

// TestHistogramMatchesOpCounts: per record, the access-size histogram sums
// to the operation count for each direction.
func TestHistogramMatchesOpCounts(t *testing.T) {
	buckets := []string{"0_100", "100_1K", "1K_10K", "10K_100K", "100K_1M",
		"1M_4M", "4M_10M", "10M_100M", "100M_1G", "1G_PLUS"}
	for seed := int64(1); seed <= 10; seed++ {
		log, _, _, _ := randomWorkload(seed)
		for _, r := range log.Module(darshan.ModulePOSIX).Records {
			var hr, hw int64
			for _, b := range buckets {
				hr += r.C("POSIX_SIZE_READ_" + b)
				hw += r.C("POSIX_SIZE_WRITE_" + b)
			}
			if hr != r.C("POSIX_READS") {
				t.Fatalf("seed %d %s: read histogram %d != POSIX_READS %d", seed, r.Name, hr, r.C("POSIX_READS"))
			}
			if hw != r.C("POSIX_WRITES") {
				t.Fatalf("seed %d %s: write histogram %d != POSIX_WRITES %d", seed, r.Name, hw, r.C("POSIX_WRITES"))
			}
		}
	}
}

// TestSequentialOrderingInvariants: consecutive accesses are a subset of
// sequential accesses, and neither exceeds the op count.
func TestSequentialOrderingInvariants(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		log, _, _, _ := randomWorkload(seed)
		for _, r := range log.Module(darshan.ModulePOSIX).Records {
			for _, dir := range []string{"READ", "WRITE"} {
				ops := r.C("POSIX_" + dir + "S")
				seq := r.C("POSIX_SEQ_" + dir + "S")
				consec := r.C("POSIX_CONSEC_" + dir + "S")
				if consec > seq {
					t.Fatalf("seed %d %s: CONSEC %d > SEQ %d", seed, r.Name, consec, seq)
				}
				if seq > ops {
					t.Fatalf("seed %d %s: SEQ %d > ops %d", seed, r.Name, seq, ops)
				}
			}
		}
	}
}

// TestAccessCountersBounded: top-4 access counts sum to at most the op
// count, and ACCESS1 is the most frequent.
func TestAccessCountersBounded(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		log, _, _, _ := randomWorkload(seed)
		for _, r := range log.Module(darshan.ModulePOSIX).Records {
			ops := r.C("POSIX_READS") + r.C("POSIX_WRITES")
			var sum int64
			var prev int64 = 1 << 62
			for i := 1; i <= 4; i++ {
				c := r.C("POSIX_ACCESS" + string(rune('0'+i)) + "_COUNT")
				if c > prev {
					t.Fatalf("seed %d %s: ACCESS counts not sorted", seed, r.Name)
				}
				prev = c
				sum += c
			}
			if sum > ops {
				t.Fatalf("seed %d %s: access counts %d exceed ops %d", seed, r.Name, sum, ops)
			}
		}
	}
}

// TestTimestampsMonotone: per record, start timestamps do not exceed end
// timestamps and all timing counters are non-negative.
func TestTimestampsMonotone(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		log, _, _, _ := randomWorkload(seed)
		for _, m := range log.ModuleList() {
			for _, r := range log.Modules[m].Records {
				for name, v := range r.FCounters {
					if v < 0 {
						t.Fatalf("seed %d: %s %s negative (%g)", seed, r.Name, name, v)
					}
				}
				prefix := m.CounterPrefix()
				for _, phase := range []string{"OPEN", "READ", "WRITE", "CLOSE"} {
					start := r.F(prefix + "_F_" + phase + "_START_TIMESTAMP")
					end := r.F(prefix + "_F_" + phase + "_END_TIMESTAMP")
					if start > 0 && end > 0 && end < start {
						t.Fatalf("seed %d: %s %s phase ends (%g) before start (%g)", seed, r.Name, phase, end, start)
					}
				}
			}
		}
	}
}

// TestSharedReductionConservesBytes: reduced shared records carry exactly
// the bytes all ranks moved.
func TestSharedReductionConservesBytes(t *testing.T) {
	s := New(Config{Seed: 77, NProcs: 6, UsesMPI: true})
	f := s.OpenShared("/scratch/sum.dat", POSIX, false, nil)
	var want int64
	for rank := 0; rank < 6; rank++ {
		size := int64(1000 * (rank + 1))
		f.WriteAt(rank, int64(rank)*(1<<20), size)
		want += size
	}
	log := s.Finalize()
	rec := log.Module(darshan.ModulePOSIX).Find("/scratch/sum.dat", darshan.SharedRank)
	if rec == nil {
		t.Fatal("missing reduced record")
	}
	if got := rec.C("POSIX_BYTES_WRITTEN"); got != want {
		t.Errorf("reduced bytes %d, want %d", got, want)
	}
	if rec.C("POSIX_SLOWEST_RANK_BYTES") < rec.C("POSIX_FASTEST_RANK_BYTES") {
		// Byte counts belong to the time-slowest/fastest ranks, so no
		// strict ordering is required — but both must be one of the
		// per-rank volumes.
		valid := map[int64]bool{}
		for rank := 0; rank < 6; rank++ {
			valid[int64(1000*(rank+1))] = true
		}
		if !valid[rec.C("POSIX_SLOWEST_RANK_BYTES")] || !valid[rec.C("POSIX_FASTEST_RANK_BYTES")] {
			t.Errorf("fastest/slowest bytes not from the per-rank set: %d/%d",
				rec.C("POSIX_FASTEST_RANK_BYTES"), rec.C("POSIX_SLOWEST_RANK_BYTES"))
		}
	}
}
