package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A virtual machine's vCPUs lose time to the hypervisor ("steal"), and on
// a shared host that loss comes in bursts of seconds. A burst slows every
// wall-clock figure taken during it, so a run's latency and throughput
// follow the neighbours' load more than the code. The benchmark therefore
// records the host's steal while it measures, cuts each phase into
// windows, and reports wall-clock figures from the quietest quarter of them;
// the steal itself is reported as a per-layer metric.

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	at           time.Time
	steal, total uint64
}

func readCPUTicks() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, false
	}
	t := cpuTicks{at: time.Now()}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealSampler reads /proc/stat every period until stopped.
type stealSampler struct {
	mu      sync.Mutex
	samples []cpuTicks
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

const stealPeriod = 100 * time.Millisecond

func startStealSampler() *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(stealPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	if t, ok := readCPUTicks(); ok {
		s.mu.Lock()
		s.samples = append(s.samples, t)
		s.mu.Unlock()
	}
}

// close stops the sampler after a last reading and waits for it to exit;
// it may be called more than once.
func (s *stealSampler) close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// frac is the share of all CPU time the hypervisor stole between from and
// to, from the samples bracketing that interval; 0 without samples (a host
// that is not a VM, or no /proc).
func (s *stealSampler) frac(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var a, b *cpuTicks
	for i := range s.samples {
		t := &s.samples[i]
		if !t.at.After(from) {
			a = t
		}
		if b == nil && !t.at.Before(to) {
			b = t
		}
	}
	if a == nil && len(s.samples) > 0 {
		a = &s.samples[0]
	}
	if b == nil && len(s.samples) > 0 {
		b = &s.samples[len(s.samples)-1]
	}
	if a == nil || b == nil || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// window is one slice of a measured phase with the figure it yielded.
type window struct {
	from, to time.Time
	value    float64
}

// quietShare is the share of a phase's windows, the quietest by steal,
// that its wall-clock figures are taken from.
const quietShare = 0.25

// quietMedian is the median value over the quietest quarter of the
// windows: those during which the host's steal was at most the lower
// quartile of the windows' steal (ties included, so on a host without
// steal every window counts). Zero for no windows.
func (s *stealSampler) quietMedian(ws []window) float64 {
	if len(ws) == 0 {
		return 0
	}
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = s.frac(w.from, w.to)
	}
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	cut := sorted[int(quietShare*float64(len(sorted)-1))]
	var vals []float64
	for i, w := range ws {
		if steal[i] <= cut {
			vals = append(vals, w.value)
		}
	}
	return median(vals)
}
