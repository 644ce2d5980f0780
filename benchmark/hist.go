package main

import "math/bits"

// hist is a log-linear histogram of non-negative durations in
// nanoseconds: 128 linear sub-buckets per power of two, so a bucket is
// never wider than 0.8% of its lower edge. It has a fixed footprint and
// add never allocates, which lets the driver time millions of rounds
// and operations without its own bookkeeping showing up in the
// allocation metrics.
type hist struct {
	counts [histBuckets]uint32
	n      int64
	sum    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 40 octaves above the linear range cover 2^47 ns ≈ 39 hours.
	histBuckets = histSub * 41
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	idx := (shift+1)*histSub + int(v>>uint(shift)) - histSub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histLow returns the lower edge and the width of bucket idx.
func histLow(idx int) (lo, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	shift := uint(idx/histSub - 1)
	return float64(int64(histSub+idx%histSub) << shift), float64(int64(1) << shift)
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sum += ns
}

// quantile returns the q-quantile in nanoseconds, interpolated by rank
// inside its bucket so two runs whose quantiles share a bucket still
// report the values they measured, not the bucket's edge.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := histLow(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := histLow(histBuckets - 1)
	return lo + width
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
