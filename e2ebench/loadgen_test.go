package main

import (
	"testing"
	"time"
)

// runStalled drives a 1000 req/s open loop for 1.2s whose operation takes
// 100µs, except that operation stallAt (when >= 0) takes 200ms.
func runStalled(stallAt int) (p99, lagP99 float64, failed int) {
	o := openLoop{Rate: 1000, Conns: 2, Duration: 1200 * time.Millisecond, Grace: 5 * time.Second}
	samples := o.run(func(i int) func() error {
		d := 100 * time.Microsecond
		if i == stallAt {
			d = 200 * time.Millisecond
		}
		return func() error { time.Sleep(d); return nil }
	})
	ps := summarize(samples)
	p99, err := percentile(ps.latencyMs, 0.99)
	if err != nil {
		panic(err)
	}
	lagP99, err = percentile(ps.lagMs, 0.99)
	if err != nil {
		panic(err)
	}
	return p99, lagP99, ps.failed
}

// A stall in the system under test must show in the open-loop figures: the
// requests queued behind it are sent late (lag) and their latency counts
// from their due time, so p99 rises by about the stall instead of the
// generator quietly offering less load.
func TestOpenLoopStallRaisesP99AndLag(t *testing.T) {
	baseP99, baseLag, failed := runStalled(-1)
	if failed != 0 {
		t.Fatalf("baseline: %d failures", failed)
	}
	p99, lag, failed := runStalled(300)
	if failed != 0 {
		t.Fatalf("stalled: %d failures", failed)
	}
	t.Logf("baseline p99=%.2fms lag p99=%.2fms; stalled p99=%.2fms lag p99=%.2fms", baseP99, baseLag, p99, lag)
	if baseP99 > 50 {
		t.Fatalf("baseline p99 %.2fms: host too loaded for the comparison", baseP99)
	}
	// The stall holds sender 0 for 200ms: ~100 of its requests (about 8%
	// of the 1200) wait behind it, so both tails must reach well into it.
	if p99 < 100 {
		t.Errorf("stalled p99 = %.2fms, want >= 100ms (stall hidden)", p99)
	}
	if lag < 100 {
		t.Errorf("stalled lag p99 = %.2fms, want >= 100ms (stall hidden)", lag)
	}
}

// Latency is measured from the due time, not from the actual send.
func TestSampleLatencyCountsFromDue(t *testing.T) {
	due := time.Unix(100, 0)
	s := sample{due: due, sent: due.Add(30 * time.Millisecond), done: due.Add(35 * time.Millisecond)}
	if got := s.latency(); got != 35*time.Millisecond {
		t.Errorf("latency = %v, want 35ms", got)
	}
	if got := s.lag(); got != 30*time.Millisecond {
		t.Errorf("lag = %v, want 30ms", got)
	}
	if got := s.service(); got != 5*time.Millisecond {
		t.Errorf("service = %v, want 5ms", got)
	}
}

// The open loop sends every scheduled request exactly once.
func TestOpenLoopSendsEachRequestOnce(t *testing.T) {
	o := openLoop{Rate: 2000, Conns: 3, Duration: 100 * time.Millisecond, Grace: time.Second}
	seen := make([]int, o.count())
	samples := o.run(func(i int) func() error {
		return func() error { seen[i]++; return nil }
	})
	if len(samples) != 200 {
		t.Fatalf("%d samples, want 200", len(samples))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("request %d sent %d times", i, c)
		}
	}
}
