package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending-sorted
// sample by the nearest-rank rule: the smallest value with at least q·n
// samples at or below it. A failed request enters the sample as +Inf, so it
// counts as missing any latency limit instead of vanishing from the tail.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// throughputSlices is how many equal request slices a closed phase is cut
// into; the median slice rate is reported so a noisy-neighbour burst moves
// the slices it hits, not the result.
const throughputSlices = 20

// latencyWindows is how many equal stretches of its schedule an open phase
// is cut into; see windowedPercentile.
const latencyWindows = 12

// medianSliceRate cuts the completion times of a closed phase (offsets from
// the phase start, any order) into throughputSlices equal-count slices in
// completion order and returns the median of the per-slice completion rates
// in operations per second. Slice i spans from the last completion of slice
// i-1 (the phase start for slice 0) to its own last completion.
func medianSliceRate(done []time.Duration) float64 {
	n := len(done)
	if n < throughputSlices {
		return math.NaN()
	}
	s := append([]time.Duration(nil), done...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rates := make([]float64, 0, throughputSlices)
	prevEnd, prevIdx := time.Duration(0), 0
	for i := 1; i <= throughputSlices; i++ {
		idx := i * n / throughputSlices
		end := s[idx-1]
		rates = append(rates, float64(idx-prevIdx)/(end-prevEnd).Seconds())
		prevEnd, prevIdx = end, idx
	}
	return median(rates)
}

// windowedPercentile cuts an open phase into latencyWindows equal stretches
// of its schedule (at[i] is the schedule position of sample ms[i], n the
// schedule length), takes the q-quantile of each stretch, and returns the
// median of those. On a shared two-core box a burst of interference inflates
// the tail of the stretches it hits; the whole-sample p95 then moves by a
// fifth from run to run, the median stretch by a few percent.
func windowedPercentile(ms []float64, at []int, n int, q float64) float64 {
	if n == 0 {
		return math.NaN()
	}
	windows := make([][]float64, latencyWindows)
	for i, v := range ms {
		w := at[i] * latencyWindows / n
		if w >= latencyWindows {
			w = latencyWindows - 1
		}
		windows[w] = append(windows[w], v)
	}
	var qs []float64
	for _, w := range windows {
		if len(w) > 0 {
			sort.Float64s(w)
			qs = append(qs, percentile(w, q))
		}
	}
	return median(qs)
}

// quartileSpread returns (q3-q1)/median of xs with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), which is the
// spread the benchmark's acceptance rule is written in.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th of 4 quantile cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}
