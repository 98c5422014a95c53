package main

import (
	"math/bits"
	"sort"
)

// Latency histogram: log-linear buckets, 32 per octave (bucket width <= 3.2%
// of its lower bound), exact below 64 ns, clamped at 2^40 ns (~18 min). A
// record is one array increment, so the timed loop never allocates.
const (
	histSubBits = 5
	histMaxBits = 40
	histBuckets = (histMaxBits-histSubBits)<<histSubBits + 1<<histSubBits
)

type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

func bucketOf(v uint64) int {
	if v < 1<<(histSubBits+1) {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	e := bits.Len64(v) - (histSubBits + 1)
	return e<<histSubBits + int(v>>uint(e))
}

// bucketBounds returns the bucket's lowest value and its width.
func bucketBounds(idx int) (lo, width uint64) {
	if idx < 1<<(histSubBits+1) {
		return uint64(idx), 1
	}
	e := uint(idx>>histSubBits) - 1
	m := uint64(idx&(1<<histSubBits-1)) | 1<<histSubBits
	return m << e, 1 << e
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, interpolated
// linearly by rank inside the bucket that holds it — a reported percentile is
// therefore not quantized to bucket edges and differs from run to run as the
// measurement does. Zero when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketBounds(i)
			return float64(lo) + float64(width)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketBounds(histBuckets - 1)
	return float64(lo + width)
}

// median returns the middle of vs (mean of the two middles for an even
// count); zero for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vs, n=4) (the default "exclusive" method) does, so a
// spread computed here is the spread the driver computes. A single value is
// both its quartiles; none gives zeros.
func quartiles(vs []float64) (q1, q3 float64) {
	if len(vs) < 2 {
		return median(vs), median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure the benchmark's bounds are stated against.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / m
}
