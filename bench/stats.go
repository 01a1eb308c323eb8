package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// minBeyond is how many samples must lie beyond a percentile before the
// harness will report it: with fewer, the value is set by one or two
// outliers and does not repeat.
const minBeyond = 10

// median returns the middle of xs (mean of the two middle values for an
// even count). It panics on an empty slice: every caller samples at least
// once, so an empty input is a harness bug.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("bench: median of no samples")
	}
	return stats.Quantile(xs, 0.5)
}

// percentile returns the p-th percentile (0 < p < 100, nearest rank) of
// xs, and refuses when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of range (0,100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}
