package iosim

import "fmt"

// This file provides reusable workload pattern helpers built on the Sim
// primitives. The TraceBench generators compose these into the benchmark
// scenarios (Simple-Bench micro-patterns, IO500 phases, application-shaped
// runs).

// WriteShared writes total bytes to a shared file in xfer-byte transfers,
// block-partitioned across all ranks. iface selects the I/O path; with
// MPIColl the writes use two-phase collective buffering.
func WriteShared(s *Sim, path string, iface Iface, layout *Layout, total, xfer int64) *File {
	f := s.OpenShared(path, iface, iface == MPIColl, layout)
	n := s.NProcs()
	perRank := total / int64(n)
	if iface == MPIColl {
		for off := int64(0); off < perRank; off += xfer {
			sz := min64(xfer, perRank-off)
			f.CollectiveWrite(off*int64(n), sz)
		}
		return f
	}
	for rank := 0; rank < n; rank++ {
		base := int64(rank) * perRank
		for off := int64(0); off < perRank; off += xfer {
			sz := min64(xfer, perRank-off)
			f.WriteAt(rank, base+off, sz)
		}
	}
	return f
}

// FilePerProcessWrite writes one private file per rank (N:N pattern), each
// perRank bytes in xfer transfers. pathPattern must contain one %d verb for
// the rank.
func FilePerProcessWrite(s *Sim, pathPattern string, iface Iface, layout *Layout, perRank, xfer int64) []*File {
	files := make([]*File, s.NProcs())
	for rank := 0; rank < s.NProcs(); rank++ {
		f := s.Open(fmt.Sprintf(pathPattern, rank), rank, iface, layout)
		for off := int64(0); off < perRank; off += xfer {
			f.WriteAt(rank, off, min64(xfer, perRank-off))
		}
		files[rank] = f
	}
	return files
}

// FilePerProcessRead reads one private file per rank.
func FilePerProcessRead(s *Sim, pathPattern string, iface Iface, layout *Layout, perRank, xfer int64) []*File {
	files := make([]*File, s.NProcs())
	for rank := 0; rank < s.NProcs(); rank++ {
		f := s.Open(fmt.Sprintf(pathPattern, rank), rank, iface, layout)
		for off := int64(0); off < perRank; off += xfer {
			f.ReadAt(rank, off, min64(xfer, perRank-off))
		}
		files[rank] = f
	}
	return files
}

// RandomReads issues n reads of size bytes at pseudo-random offsets within
// [0, extent) from each rank of a shared file. Offsets intentionally jump
// backwards and forwards so the accesses classify as non-sequential.
func RandomReads(s *Sim, f *File, n int, size, extent int64) {
	if extent < size {
		extent = size
	}
	for rank := 0; rank < s.NProcs(); rank++ {
		for i := 0; i < n; i++ {
			off := s.rng.Int63n(extent - size + 1)
			f.ReadAt(rank, off, size)
		}
	}
}

// RandomWrites issues n writes of size bytes at pseudo-random offsets from
// each rank.
func RandomWrites(s *Sim, f *File, n int, size, extent int64) {
	if extent < size {
		extent = size
	}
	for rank := 0; rank < s.NProcs(); rank++ {
		for i := 0; i < n; i++ {
			off := s.rng.Int63n(extent - size + 1)
			f.WriteAt(rank, off, size)
		}
	}
}

// MetadataStorm issues a burst of stat calls plus open/close churn on many
// small files from every rank, producing a high metadata load signature.
func MetadataStorm(s *Sim, dir string, filesPerRank, statsPerFile int) {
	for rank := 0; rank < s.NProcs(); rank++ {
		for i := 0; i < filesPerRank; i++ {
			path := fmt.Sprintf("%s/meta.%d.%d", dir, rank, i)
			f := s.Open(path, rank, POSIX, nil)
			for j := 0; j < statsPerFile; j++ {
				f.Stat(rank)
			}
			f.WriteAt(rank, 0, 64)
			f.Close(rank)
		}
	}
}

// ConfigRead models the benign STDIO usage every job has: rank 0 reads a
// small configuration file through the buffered layer.
func ConfigRead(s *Sim, path string) {
	f := s.Open(path, 0, STDIO, nil)
	f.ReadAt(0, 0, 2048)
	f.Close(0)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
