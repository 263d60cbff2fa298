package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile of xs, and refuses
// (ok=false) when fewer than ten samples lie beyond it: a tail read off
// a handful of samples is one slow request, not a percentile.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if n == 0 || rank < 1 || n-rank < 10 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// percentileOrZero is percentile for the metric table, where a refused
// percentile reads 0.
func percentileOrZero(xs []float64, p float64) float64 {
	v, _ := percentile(xs, p)
	return v
}

// quartiles returns the nearest-rank first and third quartiles of xs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return s[(n-1)/4], s[(3*n-1)/4]
}

// undisturbed estimates a timing metric from its per-slice values. The
// other tenants of a shared box only ever take time away, and they do it
// in stretches of seconds, so the favourable quartile of one-second
// slices — the third for a rate, the first for a cost — is the value
// least affected by them. Measured on ten seeds per workload it was the
// steadiest of median, mean, quartile, decile and best slice.
func undisturbed(d metricDef, slices []float64) float64 {
	if len(slices) == 0 {
		return 0
	}
	q1, q3 := quartiles(slices)
	if d.Better == "higher" {
		return q3
	}
	return q1
}

// spread is how far a metric's slices disagree, as a share of their
// median: the interquartile range for four slices or more, the full
// range for fewer.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := quartiles(xs)
	if len(xs) < 4 {
		lo, hi = xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
	}
	return (hi - lo) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
