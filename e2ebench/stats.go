package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail estimate resting on fewer is noise.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place. It fails when fewer than minTail samples lie strictly
// beyond the returned rank, so a p99 is reported only from at least 1000
// samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile: no samples")
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail && q < 1 {
		return 0, fmt.Errorf("percentile: p%g of %d samples leaves %d beyond it, need %d", q*100, n, beyond, minTail)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// minSamplesFor is the smallest sample count percentile accepts for q.
func minSamplesFor(q float64) int {
	n := minTail + 1
	for n-int(math.Ceil(q*float64(n))) < minTail {
		n++
	}
	return n
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), sorting xs in place. Zero for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean returns the arithmetic mean of xs, zero for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, zero when b is zero (a metric with no base reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
