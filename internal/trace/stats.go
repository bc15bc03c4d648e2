package trace

import "math"

// Buckets are the paper's five daily-request-frequency variability classes
// (Fig. 2): σ ∈ [0,0.1), [0.1,0.3), [0.3,0.5), [0.5,0.8), [0.8,∞).
// σ here is the coefficient of variation SigmaCV — see DESIGN.md §5 for why
// the paper's unit-less buckets imply a mean-normalised deviation.
var Buckets = [5]struct {
	Lo, Hi float64
	Label  string
}{
	{0, 0.1, "0-0.1"},
	{0.1, 0.3, "0.1-0.3"},
	{0.3, 0.5, "0.3-0.5"},
	{0.5, 0.8, "0.5-0.8"},
	{0.8, math.Inf(1), ">0.8"},
}

// NumBuckets is the number of volatility classes.
const NumBuckets = 5

// PaperBucketShares are the population shares the paper measured on the
// Wikipedia trace (Fig. 2): 81.75 %, 9.93 %, 5.39 %, 2.3 %, 0.63 %.
var PaperBucketShares = [NumBuckets]float64{0.8175, 0.0993, 0.0539, 0.023, 0.0063}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Sigma implements Eq. 1 literally: the sample standard deviation (T−1
// denominator) of a file's daily request frequencies.
func Sigma(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// SigmaCV returns the coefficient of variation Sigma/Mean — the statistic
// the paper's unit-less 0–0.1 … >0.8 buckets are defined over. A series
// with zero mean has CV 0 by convention (a never-requested file is
// perfectly stationary).
func SigmaCV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return Sigma(xs) / m
}

// BucketOf maps a coefficient of variation to its bucket index 0–4.
func BucketOf(cv float64) int {
	for i := 0; i < NumBuckets-1; i++ {
		if cv < Buckets[i].Hi {
			return i
		}
	}
	return NumBuckets - 1
}

// BucketLabel returns the human-readable range of bucket i.
func BucketLabel(i int) string { return Buckets[i].Label }

// SigmaHistogram computes, for each volatility bucket, how many files fall
// in it by realized read-frequency CV — the statistic plotted in Fig. 2.
func (tr *Trace) SigmaHistogram() [NumBuckets]int {
	var hist [NumBuckets]int
	for i := range tr.Reads {
		hist[BucketOf(SigmaCV(tr.Reads[i]))]++
	}
	return hist
}

// BucketShares converts a histogram to population shares.
func BucketShares(hist [NumBuckets]int) [NumBuckets]float64 {
	total := 0
	for _, c := range hist {
		total += c
	}
	var out [NumBuckets]float64
	if total == 0 {
		return out
	}
	for i, c := range hist {
		out[i] = float64(c) / float64(total)
	}
	return out
}
