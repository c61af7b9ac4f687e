package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// errNotSent marks an open-loop request the generator gave up on because
// the phase had overrun its grace period: it counts as a failure, exactly
// like a request that timed out.
var errNotSent = errors.New("not sent: phase overran its grace period")

// sample is one operation's timing. In an open loop due is the time the
// schedule said to send; in a closed loop due equals sent.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latency is the operation's time from due to done, the figure a user of
// an open system sees: waiting caused by an earlier stall counts.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// service is the time from the actual send to done.
func (s sample) service() time.Duration { return s.done.Sub(s.sent) }

// lag is how late the generator sent the operation.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

// openLoop drives a fixed arrival schedule: request i is due at
// start + i/Rate for every i with a due time inside Duration, whatever
// the system does. Sender k of Conns sends requests k, k+Conns, ... in
// order, each at its due time or, when the previous one returned late,
// immediately; the lateness is recorded as lag and stays in the latency,
// so a stall raises both instead of silently lowering the offered load.
// A fixed sender count bounds the concurrency the system sees.
type openLoop struct {
	Rate     float64       // requests per second
	Conns    int           // concurrent senders
	Duration time.Duration // length of the arrival schedule
	Grace    time.Duration // after Duration+Grace, unsent requests fail
}

// count is the number of requests the schedule holds.
func (o openLoop) count() int { return int(o.Duration.Seconds() * o.Rate) }

// prepareFunc readies operation i ahead of its send (building a request
// is generator work, not latency) and returns the call that performs it.
type prepareFunc func(i int) (send func() error)

// run executes the schedule, preparing request i before its due time and
// sending it at that time, and returns one sample per request in schedule
// order once every sender has finished.
func (o openLoop) run(prepare prepareFunc) []sample {
	n := o.count()
	samples := make([]sample, n)
	start := time.Now().Add(5 * time.Millisecond)
	giveUp := start.Add(o.Duration + o.Grace)
	interval := float64(time.Second) / o.Rate
	var wg sync.WaitGroup
	for k := 0; k < o.Conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p, err := newPacer()
			if err != nil {
				for i := k; i < n; i += o.Conns {
					samples[i] = sample{due: start, sent: start, done: start, err: err}
				}
				return
			}
			defer p.close()
			for i := k; i < n; i += o.Conns {
				due := start.Add(time.Duration(float64(i) * interval))
				send := prepare(i)
				if err := p.sleepUntil(due); err != nil {
					samples[i] = sample{due: due, sent: due, done: due, err: err}
					continue
				}
				s := &samples[i]
				s.due, s.sent = due, time.Now()
				if s.sent.After(giveUp) {
					s.done, s.err = s.sent, errNotSent
					continue
				}
				s.err = send()
				s.done = time.Now()
			}
		}(k)
	}
	wg.Wait()
	return samples
}

// closedLoop runs conns callers back to back for d: each sends its next
// operation as soon as the previous one returns, so the rate is whatever
// the system sustains. Operation indexes come from one shared counter
// starting at base; preparing an operation is not part of its timing.
func closedLoop(conns int, d time.Duration, base int, prepare prepareFunc) []sample {
	var next atomic.Int64
	next.Store(int64(base))
	end := time.Now().Add(d)
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				if !time.Now().Before(end) {
					return
				}
				send := prepare(int(next.Add(1) - 1))
				t0 := time.Now()
				err := send()
				per[k] = append(per[k], sample{due: t0, sent: t0, done: time.Now(), err: err})
			}
		}(k)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// phaseSummary condenses a phase's samples into the end-to-end figures.
type phaseSummary struct {
	attempted, failed int
	latencyMs         []float64 // successful operations only
	lagMs             []float64
	span              time.Duration // first send to last completion
}

func summarize(samples []sample) phaseSummary {
	var ps phaseSummary
	var first, last time.Time
	for _, s := range samples {
		ps.attempted++
		if first.IsZero() || s.sent.Before(first) {
			first = s.sent
		}
		if s.done.After(last) {
			last = s.done
		}
		ps.lagMs = append(ps.lagMs, ms(s.lag()))
		if s.err != nil {
			ps.failed++
			continue
		}
		ps.latencyMs = append(ps.latencyMs, ms(s.latency()))
	}
	ps.span = last.Sub(first)
	return ps
}

// merge adds another phase's counts, latencies and lags to ps (its span
// is left alone).
func (ps *phaseSummary) merge(o phaseSummary) {
	ps.attempted += o.attempted
	ps.failed += o.failed
	ps.latencyMs = append(ps.latencyMs, o.latencyMs...)
	ps.lagMs = append(ps.lagMs, o.lagMs...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// block is one contiguous measured stretch: its samples and the interval
// they were scheduled over.
type block struct {
	samples []sample
	from    time.Time
	length  time.Duration
}

// newBlock wraps a phase's samples; the interval starts at the earliest
// due time.
func newBlock(samples []sample, length time.Duration) block {
	b := block{samples: samples, length: length}
	for _, s := range samples {
		if b.from.IsZero() || s.due.Before(b.from) {
			b.from = s.due
		}
	}
	return b
}

// windowed cuts each block into consecutive windows of length w by due
// time (a block's tail shorter than w is dropped) and evaluates f on each.
func windowed(blocks []block, w time.Duration, f func([]sample) (float64, error)) ([]window, error) {
	var out []window
	for _, b := range blocks {
		n := int(b.length / w)
		groups := make([][]sample, n)
		for _, s := range b.samples {
			if k := int(s.due.Sub(b.from) / w); k < n {
				groups[k] = append(groups[k], s)
			}
		}
		for k, g := range groups {
			v, err := f(g)
			if err != nil {
				return nil, fmt.Errorf("window %d: %w", len(out), err)
			}
			from := b.from.Add(time.Duration(k) * w)
			out = append(out, window{from: from, to: from.Add(w), value: v})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no complete %v window", w)
	}
	return out, nil
}

// windowedByCount cuts samples, in order, into consecutive windows of n
// (a shorter tail is dropped) and evaluates f on each; a window spans its
// first sample's due time to its last one's completion. A window f
// rejects (too many of its operations failed) is left out; the failures
// are counted elsewhere.
func windowedByCount(samples []sample, n int, f func([]sample) (float64, error)) ([]window, error) {
	var out []window
	var lastErr error
	for k := 0; k+n <= len(samples); k += n {
		g := samples[k : k+n]
		v, err := f(g)
		if err != nil {
			lastErr = err
			continue
		}
		out = append(out, window{from: g[0].due, to: g[n-1].done, value: v})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no usable window of %d operations (last error: %v)", n, lastErr)
	}
	return out, nil
}

// latencyQuantile is a window function: the q-quantile of the window's
// successful latencies, under the percentile rule.
func latencyQuantile(q float64) func([]sample) (float64, error) {
	return func(ss []sample) (float64, error) { return percentile(summarize(ss).latencyMs, q) }
}

// okRate is a window function: successful operations per second of w.
func okRate(w time.Duration) func([]sample) (float64, error) {
	return func(ss []sample) (float64, error) {
		ps := summarize(ss)
		return float64(ps.attempted-ps.failed) / w.Seconds(), nil
	}
}

// busyRate is a window function for one caller timing back-to-back
// operations: successful operations per second spent inside them, so the
// caller's own work between operations (resetting the input, checking
// the output) is not charged to the system.
func busyRate(ss []sample) (float64, error) {
	var ok int
	var busy time.Duration
	for _, s := range ss {
		if s.err == nil {
			ok++
			busy += s.service()
		}
	}
	return ratio(float64(ok), busy.Seconds()), nil
}
