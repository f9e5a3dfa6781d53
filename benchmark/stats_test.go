package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A failed request is +Inf: two failures in a hundred reach the p99.
	xs[98], xs[99] = math.Inf(1), math.Inf(1)
	if got := percentile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := percentile(xs, 0.95); got != 95 {
		t.Errorf("p95 with 2%% failures = %v, want 95", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestMedianSliceRateIgnoresOneBurst(t *testing.T) {
	// 100 completions at a steady 1 ms apart, except that the fourth slice
	// stalls for a second: the mean rate collapses, the median slice does not.
	var done []time.Duration
	at := time.Duration(0)
	for i := 0; i < 100; i++ {
		at += time.Millisecond
		if i == 70 {
			at += time.Second
		}
		done = append(done, at)
	}
	if got := medianSliceRate(done); math.Abs(got-1000) > 1 {
		t.Errorf("median slice rate = %v/s, want 1000/s", got)
	}
	if mean := 100 / at.Seconds(); mean > 100 {
		t.Errorf("the mean rate %v/s should have been dragged down by the stall", mean)
	}
	// Completion order, not slice order, defines the slices.
	rev := make([]time.Duration, len(done))
	for i, d := range done {
		rev[len(done)-1-i] = d
	}
	if a, b := medianSliceRate(done), medianSliceRate(rev); a != b {
		t.Errorf("order dependence: %v vs %v", a, b)
	}
}

func TestQuartileSpreadMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	want := (8.25 - 2.75) / 5.5
	if got := quartileSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	if got := quartileSpread([]float64{3, 1, 4, 1, 5}); math.Abs(got-3.5/3) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, 3.5/3)
	}
}
