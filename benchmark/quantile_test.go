package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	// 1..100 shuffled by a fixed stride: the p-th percentile is p exactly.
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64((i*37)%100 + 1)
	}
	first := samples[0]
	for _, p := range []float64{1, 25, 50, 75, 90} {
		got, err := quantile(samples, p)
		if err != nil || got != p { //minicost:allow-floatcmp exact integers
			t.Errorf("p%g of 1..100 = %v, %v; want %v", p, got, err, p)
		}
	}
	if samples[0] != first { //minicost:allow-floatcmp exact integers
		t.Error("quantile reordered its input")
	}
	// Nearest rank never interpolates: p50 of two samples is the lower one.
	if got, _ := quantile([]float64{10, 20}, 50); got != 10 { //minicost:allow-floatcmp exact integers
		t.Errorf("p50 of {10,20} = %v, want 10", got)
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	if _, err := quantile(samples, 90); err != nil {
		t.Errorf("p90 of 100 samples has 10 beyond and must be reported: %v", err)
	}
	if _, err := quantile(samples[:99], 90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond and must be refused")
	}
	if _, err := quantile(samples, 99); err == nil {
		t.Error("p99 of 100 samples has 1 beyond and must be refused")
	}
	if _, err := quantile(nil, 50); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
	for _, p := range []float64{0, 100, -1, math.NaN()} {
		if _, err := quantile(samples, p); err == nil {
			t.Errorf("percentile %v must be refused", p)
		}
	}
}

// Three plan latencies that all land in obs.DefSecondsBuckets' (0.1, 0.25] s
// bucket are what put p50 = 175 ms and p99 = 248.5 ms — the bucket's
// interpolation points, the same for every shard count — into
// BENCH_serving.json. Exact samples give the middle sample and no p99.
func TestQuantileThreeSamplesOneBucket(t *testing.T) {
	ms := []float64{131.2, 118.4, 124.9}
	p50, err := quantile(ms, 50)
	if err != nil || p50 != 124.9 { //minicost:allow-floatcmp picks a sample, never computes one
		t.Errorf("p50 = %v, %v; want the middle sample 124.9", p50, err)
	}
	if p99, err := quantile(ms, 99); err == nil {
		t.Errorf("p99 of three samples reported as %v; must be refused", p99)
	}
	if got := median(ms); got != 124.9 { //minicost:allow-floatcmp picks a sample
		t.Errorf("median = %v, want 124.9", got)
	}
}
