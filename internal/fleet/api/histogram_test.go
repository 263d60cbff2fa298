package api

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
)

func histOf(samples ...time.Duration) *Buckets {
	var h Histogram
	for _, d := range samples {
		h.Observe(d)
	}
	return h.Snapshot()
}

// nearestRank is the reference quantile: the ceil(p*n)-th smallest sample.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	i := min(max(int(math.Ceil(p*float64(len(sorted))))-1, 0), len(sorted)-1)
	return sorted[i]
}

// TestPercentileNearestRank: the nearest-rank rule never hides the tail
// sample at small n, and the maximum caps the reported bucket edge, so a
// top sample reads exactly.
func TestPercentileNearestRank(t *testing.T) {
	samples := histOf(time.Second, time.Second, 10*time.Second)
	if got := samples.Quantile(0.95); got != 10*time.Second {
		t.Errorf("p95 of [1s 1s 10s] = %v, want the 10s tail sample", got)
	}
	if got := samples.Quantile(0.50); bucketOf(got) != bucketOf(time.Second) {
		t.Errorf("p50 = %v, want the bucket holding 1s", got)
	}
	if got := (*Buckets)(nil).Quantile(0.95); got != 0 {
		t.Errorf("empty sample p95 = %v, want 0", got)
	}
	if got := histOf(5 * time.Second).Quantile(0.01); got != 5*time.Second {
		t.Errorf("single-sample p1 = %v, want the sample", got)
	}
}

func TestHistogramTable(t *testing.T) {
	overflow := 200 * time.Second
	for _, tc := range []struct {
		name     string
		samples  []time.Duration
		p        float64
		want     time.Duration
		wantIdx  int64 // the one bucket all samples land in; -1 for several
		wantSize int64
	}{
		{"empty", nil, 0.5, 0, -1, 0},
		{"one sample", []time.Duration{3 * time.Millisecond}, 0.5, 3 * time.Millisecond, int64(bucketOf(3 * time.Millisecond)), 1},
		{"zero is a sample", []time.Duration{0, 0}, 0.95, 0, 0, 2},
		{"negative counts as zero", []time.Duration{-time.Second}, 0.5, 0, 0, 1},
		{"overflow reads the maximum", []time.Duration{overflow}, 0.5, overflow, histBuckets - 1, 1},
		{"tail", []time.Duration{time.Second, time.Second, 10 * time.Second}, 0.95, 10 * time.Second, -1, 3},
	} {
		b := histOf(tc.samples...)
		if got := b.Quantile(tc.p); got != tc.want {
			t.Errorf("%s: p%v = %v, want %v", tc.name, tc.p*100, got, tc.want)
		}
		if b.Count() != tc.wantSize {
			t.Errorf("%s: count %d, want %d", tc.name, b.Count(), tc.wantSize)
		}
		if tc.wantIdx >= 0 && (len(b.Counts) != 1 || b.Counts[0][0] != tc.wantIdx) {
			t.Errorf("%s: buckets %v, want all in bucket %d", tc.name, b.Counts, tc.wantIdx)
		}
	}
}

// TestHistogramLayout: every bucket edge sits in its own bucket, one
// nanosecond more starts the next, and no bucket is wider than 1/8 of its
// lower edge.
func TestHistogramLayout(t *testing.T) {
	for i := 0; i < histBuckets-1; i++ {
		hi := upperEdge(i)
		if bucketOf(hi) != i || bucketOf(hi+1) != i+1 {
			t.Fatalf("bucket %d: edge %v lands in %d, edge+1 in %d", i, hi, bucketOf(hi), bucketOf(hi+1))
		}
		if lo := upperEdge(i - 1); i > 0 && (hi-lo)*8 > lo {
			t.Fatalf("bucket %d (%v, %v] is wider than 1/8", i, lo, hi)
		}
	}
	if len(promBounds) != 15 {
		t.Fatalf("%d finite le bounds, want 15 (+Inf makes 16)", len(promBounds))
	}
}

// FuzzHistogramQuantile: for any samples, Quantile is within one bucket of
// the nearest-rank sample, and merging the histograms of two halves gives
// the histogram of the whole, bucket for bucket.
func FuzzHistogramQuantile(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(50), uint8(3))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1e9), 1e10), uint8(95), uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.MaxInt64), uint8(99), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, pct, split uint8) {
		var samples []time.Duration
		for ; len(raw) >= 8; raw = raw[8:] {
			samples = append(samples, time.Duration(binary.LittleEndian.Uint64(raw)>>1))
		}
		if len(samples) == 0 {
			return
		}
		cut := int(split) % (len(samples) + 1)
		whole := histOf(samples...)
		if merged := histOf(samples[:cut]...).Merge(histOf(samples[cut:]...)); !reflect.DeepEqual(merged, whole) {
			t.Fatalf("merge of halves %+v, histogram of the whole %+v", merged, whole)
		}
		p := float64(pct%101) / 100
		sorted := slices.Clone(samples)
		slices.Sort(sorted)
		got, want := whole.Quantile(p), nearestRank(sorted, p)
		if d := bucketOf(got) - bucketOf(want); d < -1 || d > 1 {
			t.Fatalf("p%v = %v (bucket %d), nearest-rank sample %v (bucket %d)", p, got, bucketOf(got), want, bucketOf(want))
		}
	})
}
