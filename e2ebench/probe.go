package main

import (
	"math/bits"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a shared VM whose speed drifts by
// tens of percent over minutes as its neighbours' load changes: CPU time
// per operation and wall-clock figures move together, run after run, with
// no change to the code. The probe measures that drift directly. It is a
// fixed kernel that shares no code with cs31 (xorshift indices into an
// L2-sized table, popcounts and stores), run between measured blocks; the
// run's median probe time against probeRefWall and probeRefCPU gives the
// host's current speed, and the time-valued end-to-end metrics are
// reported at the reference speed. A change to cs31 cannot move the
// probe, so it cannot move the correction either.

const (
	probeWords = 1 << 15 // 256 KiB table
	probeIters = 1 << 19 // about 2 ms at the reference speed
	probeReps  = 3       // probes per calibration point

	// The reference speed: a round figure near the probe's median wall
	// and thread-CPU time on the sizing host (2-vCPU Xeon VM, go1.24.0),
	// where it read 2.2-2.8 ms.
	probeRefWall = 2.5 // ms
	probeRefCPU  = 2.5 // ms
)

var (
	probeTable = make([]uint64, probeWords)
	probeSink  uint64
)

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, _ = syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeOnce runs the kernel once on a locked thread.
func probeOnce() (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (probeWords - 1)
		acc += uint64(bits.OnesCount64(probeTable[j] ^ x))
		probeTable[j] = acc
	}
	probeSink = acc
	return time.Since(t0), threadCPU() - c0
}

// speedProbe collects a run's probe times.
type speedProbe struct {
	wallMs, cpuMs []float64
}

// point takes one calibration point: probeReps probes.
func (p *speedProbe) point() {
	for k := 0; k < probeReps; k++ {
		w, c := probeOnce()
		p.wallMs = append(p.wallMs, ms(w))
		p.cpuMs = append(p.cpuMs, ms(c))
	}
}

// wallFactor is how much slower than the reference the host ran, in wall
// time: the median probe wall time over probeRefWall. 1 without probes.
func (p *speedProbe) wallFactor() float64 {
	if len(p.wallMs) == 0 {
		return 1
	}
	return median(append([]float64(nil), p.wallMs...)) / probeRefWall
}

// figures reports the run's probe medians as ungated figures.
func (p *speedProbe) figures(into map[string]metric) {
	into["host.probe_wall_ms"] = metric{Value: p.wallFactor() * probeRefWall, Unit: "ms"}
	into["host.probe_cpu_ms"] = metric{Value: p.cpuFactor() * probeRefCPU, Unit: "ms"}
}

// cpuFactor is the same in thread-CPU time, which steal does not inflate
// but a busy sibling hyperthread or a lower clock does.
func (p *speedProbe) cpuFactor() float64 {
	if len(p.cpuMs) == 0 {
		return 1
	}
	return median(append([]float64(nil), p.cpuMs...)) / probeRefCPU
}

// endToEndFigures are a run's time-valued end-to-end figures.
type endToEndFigures struct {
	setupS, p50Ms, opsPerS, cpuMsPerOp float64
}

// atReference restates the figures at the probe's reference speed:
// wall-clock figures by the wall factor, CPU time by the CPU factor.
func (f endToEndFigures) atReference(p *speedProbe) endToEndFigures {
	wf, cf := p.wallFactor(), p.cpuFactor()
	return endToEndFigures{
		setupS:     f.setupS / wf,
		p50Ms:      f.p50Ms / wf,
		opsPerS:    f.opsPerS * wf,
		cpuMsPerOp: f.cpuMsPerOp / cf,
	}
}

func (f endToEndFigures) set(m *metricSet) {
	m.set("setup_s", f.setupS)
	m.set("p50_ms", f.p50Ms)
	m.set("ops_per_s", f.opsPerS)
	m.set("cpu_ms_per_op", f.cpuMsPerOp)
}

// figures reports the uncorrected figures as ungated "raw." figures.
func (f endToEndFigures) figures(into map[string]metric) {
	into["raw.setup_s"] = metric{Value: f.setupS, Unit: "s"}
	into["raw.p50_ms"] = metric{Value: f.p50Ms, Unit: "ms"}
	into["raw.ops_per_s"] = metric{Value: f.opsPerS, Unit: "1/s"}
	into["raw.cpu_ms_per_op"] = metric{Value: f.cpuMsPerOp, Unit: "ms"}
}
