package api

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency layout is fixed, so every node's buckets line up and merge
// index by index. Bucket 0 holds every sample up to 2^10 ns (about 1 µs),
// zero included; each power of two up to 2^37 ns (about 137 s) is then
// cut into 2^histSub equal sub-buckets, and the last bucket holds the
// rest. Upper edges are inclusive, as Prometheus le bounds are, and lie
// at most 1/8 above the lower ones.
const (
	histMinExp  = 10
	histMaxExp  = 37
	histSub     = 3
	histBuckets = 2 + (histMaxExp-histMinExp)<<histSub
)

// Histogram records a latency distribution without a lock: Observe is a
// few atomic adds, Snapshot may run beside it, and the zero value is
// ready to use. Job latency, queue age and retrieval latency are each one.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Observe records one sample; a negative duration counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	// The max goes first and Snapshot reads it last, so every counted
	// sample is covered by the maximum a snapshot carries.
	for cur := h.max.Load(); int64(d) > cur && !h.max.CompareAndSwap(cur, int64(d)); cur = h.max.Load() {
	}
	h.sum.Add(int64(d))
	h.counts[bucketOf(d)].Add(1)
}

// Snapshot returns the samples recorded so far in their wire form.
func (h *Histogram) Snapshot() *Buckets {
	b := &Buckets{}
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			b.Counts = append(b.Counts, [2]int64{int64(i), n})
		}
	}
	b.Sum = time.Duration(h.sum.Load())
	b.Max = time.Duration(h.max.Load())
	return b
}

// bucketOf returns the index of the bucket holding d (d >= 0).
func bucketOf(d time.Duration) int {
	if d <= 1<<histMinExp {
		return 0
	}
	u := uint64(d - 1) // upper edges are inclusive
	e := bits.Len64(u) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	return 1 + (e-histMinExp)<<histSub + int(u>>(e-histSub)&(1<<histSub-1))
}

// upperEdge is bucket i's inclusive upper bound; the overflow bucket (and
// any index past it) has none and reports math.MaxInt64.
func upperEdge(i int) time.Duration {
	switch {
	case i <= 0:
		return 1 << histMinExp
	case i >= histBuckets-1:
		return math.MaxInt64
	}
	e := histMinExp + (i-1)>>histSub
	sub := (i - 1) & (1<<histSub - 1)
	return 1<<e + time.Duration(sub+1)<<(e-histSub)
}

// Buckets is a latency histogram's wire form: the non-empty buckets of
// the fixed layout as (index, count) pairs in index order, the sum of the
// samples and their exact maximum. A nil *Buckets is an empty histogram.
// Added in 1.8.
type Buckets struct {
	Counts [][2]int64    `json:"counts,omitempty"`
	Sum    time.Duration `json:"sum_ns"`
	Max    time.Duration `json:"max_ns"`
}

// Count is the number of samples.
func (b *Buckets) Count() (n int64) {
	if b != nil {
		for _, c := range b.Counts {
			n += c[1]
		}
	}
	return n
}

// Quantile returns the p-quantile (0..1) by the nearest-rank method
// (ceil(p*n)), which never hides the tail sample at small n: the upper
// edge of the bucket holding that sample, capped at the maximum. It is
// within one bucket of the sample itself, and 0 for an empty histogram.
func (b *Buckets) Quantile(p float64) time.Duration {
	n := b.Count()
	if n == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(p*float64(n))), 1), n)
	for _, c := range b.Counts {
		if rank -= c[1]; rank <= 0 {
			return min(upperEdge(int(c[0])), b.Max)
		}
	}
	return b.Max
}

// Merge returns the histogram of both sample sets: counts added bucket
// for bucket, sums added, the larger maximum. Either side may be nil, and
// b itself is returned when o is; neither is modified.
func (b *Buckets) Merge(o *Buckets) *Buckets {
	if o == nil {
		return b
	}
	var h Histogram
	for _, x := range []*Buckets{b, o} {
		if x == nil {
			continue
		}
		for _, c := range x.Counts {
			h.counts[min(max(c[0], 0), histBuckets-1)].Add(c[1])
		}
		h.sum.Add(int64(x.Sum))
		h.max.Store(max(h.max.Load(), int64(x.Max)))
	}
	return h.Snapshot()
}

// promBounds are the bucket indices whose upper edges are the exposition's
// le bounds: every second power of two from 2^10 ns to 2^36 ns, then
// 2^37 ns, the last finite edge, so that with +Inf there are 16. They are
// edges of the fine layout, so each cumulative count is exact.
var promBounds = func() []int {
	var idx []int
	for e := histMinExp; e < histMaxExp; e += 2 {
		idx = append(idx, (e-histMinExp)<<histSub)
	}
	return append(idx, histBuckets-2)
}()

// writeProm renders the histogram as one family's Prometheus _bucket,
// _sum and _count series, cumulative as the format requires.
func (b *Buckets) writeProm(w io.Writer, name string) {
	var cum int64
	next := 0
	for _, bound := range promBounds {
		for ; next < len(b.Counts) && b.Counts[next][0] <= int64(bound); next++ {
			cum += b.Counts[next][1]
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, seconds(upperEdge(bound)), cum)
	}
	n := b.Count()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n", name, n, name, seconds(b.Sum), name, n)
}
