package main

import (
	"math/rand"
	"testing"
)

// The percentile rule: at least minTail samples lie beyond the reported
// percentile, and a request that cannot meet that is refused.
func TestPercentileLeavesTenBeyond(t *testing.T) {
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		n := minSamplesFor(q)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		v, err := percentile(xs, q)
		if err != nil {
			t.Fatalf("q=%g n=%d: %v", q, n, err)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("q=%g n=%d: %d samples beyond %v, want >= %d", q, n, beyond, v, minTail)
		}
		if _, err := percentile(xs[:n-1], q); err == nil {
			t.Errorf("q=%g: %d samples accepted, want refusal below %d", q, n-1, n)
		}
	}
	if n := minSamplesFor(0.99); n != 1000 {
		t.Errorf("p99 needs %d samples, want 1000", n)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	if v, _ := percentile(xs, 0.99); v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", v)
	}
	if v, _ := percentile(xs, 0.5); v != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", v)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := mean([]float64{1, 2, 3, 6}); m != 3 {
		t.Errorf("mean = %v", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio by zero = %v", r)
	}
}
