package main

import (
	"errors"
	"testing"
	"time"
)

// stealAt builds a sampler whose cumulative steal rises by the given
// per-second shares, one reading per second starting at t0.
func stealAt(t0 time.Time, perSecond []float64) *stealSampler {
	s := &stealSampler{}
	var steal, total uint64
	s.samples = append(s.samples, cpuTicks{at: t0})
	for i, f := range perSecond {
		total += 1000
		steal += uint64(f * 1000)
		s.samples = append(s.samples, cpuTicks{at: t0.Add(time.Duration(i+1) * time.Second), steal: steal, total: total})
	}
	return s
}

// The quiet-quarter median takes the windows whose steal is at most the
// lower quartile of the windows' steal, and only those.
func TestQuietMedianTakesQuietestQuarter(t *testing.T) {
	t0 := time.Unix(1000, 0)
	steal := []float64{0.30, 0.02, 0.25, 0.01, 0.20, 0.03, 0.35, 0.28, 0.22}
	st := stealAt(t0, steal)
	var ws []window
	for i, f := range steal {
		from := t0.Add(time.Duration(i) * time.Second)
		// A window's value grows with its steal, as a latency would.
		ws = append(ws, window{from: from, to: from.Add(time.Second), value: 1 + 10*f})
	}
	// Lower quartile of nine steals (index 2 of the sorted list) is 0.03:
	// the windows at 0.01, 0.02 and 0.03 count, and their median is 0.02's.
	if got, want := st.quietMedian(ws), 1+10*0.02; got != want {
		t.Errorf("quietMedian = %v, want %v", got, want)
	}
}

// Without steal every window counts.
func TestQuietMedianWithoutStealUsesAll(t *testing.T) {
	t0 := time.Unix(1000, 0)
	st := stealAt(t0, []float64{0, 0, 0, 0, 0})
	var ws []window
	for i, v := range []float64{5, 1, 4, 2, 3} {
		from := t0.Add(time.Duration(i) * time.Second)
		ws = append(ws, window{from: from, to: from.Add(time.Second), value: v})
	}
	if got := st.quietMedian(ws); got != 3 {
		t.Errorf("quietMedian = %v, want 3 (median of all five)", got)
	}
}

// windowedByCount cuts consecutive windows of n operations, drops a short
// tail, spans each window from its first due time to its last completion,
// and leaves out a window its function rejects.
func TestWindowedByCount(t *testing.T) {
	t0 := time.Unix(2000, 0)
	var ss []sample
	for i := 0; i < 10; i++ {
		due := t0.Add(time.Duration(i) * time.Second)
		ss = append(ss, sample{due: due, sent: due, done: due.Add(500 * time.Millisecond)})
	}
	calls := 0
	ws, err := windowedByCount(ss, 3, func(g []sample) (float64, error) {
		calls++
		if calls == 2 {
			return 0, errors.New("rejected")
		}
		return float64(len(g)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(ws) != 2 {
		t.Fatalf("calls = %d, windows = %d; want 3 calls (tail of 1 dropped) and 2 windows", calls, len(ws))
	}
	if !ws[1].from.Equal(t0.Add(6*time.Second)) || !ws[1].to.Equal(t0.Add(8500*time.Millisecond)) {
		t.Errorf("window 1 spans %v..%v", ws[1].from, ws[1].to)
	}
	if _, err := windowedByCount(ss[:2], 3, func([]sample) (float64, error) { return 0, nil }); err == nil {
		t.Error("fewer samples than one window: want an error")
	}
}
