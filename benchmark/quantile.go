package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile for it to
// be reported: with fewer, the figure is one or two outliers, not a
// percentile.
const minBeyond = 10

// quantile returns the p-th percentile (0 < p < 100) of samples by the
// nearest-rank rule: the smallest sample with at least p % of the samples
// at or below it. It is exact — no buckets, no interpolation — and refuses
// a tail percentile (p > 50) that has fewer than minBeyond samples beyond
// it. samples need not be sorted; they are not modified.
func quantile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("quantile: p%g of no samples", p)
	}
	if !(p > 0 && p < 100) {
		return 0, fmt.Errorf("quantile: percentile %g outside (0,100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("quantile: p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is quantile(samples, 50) for callers that know samples is
// non-empty; it returns 0 for an empty slice.
func median(samples []float64) float64 {
	v, err := quantile(samples, 50)
	if err != nil {
		return 0
	}
	return v
}
