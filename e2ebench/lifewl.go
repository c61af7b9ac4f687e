package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cs31/internal/life"
	"cs31/internal/msgpass"
	"cs31/internal/obs"
)

// The life-* operation: one RunCtx of lifeGens generations on a fresh
// copy of a lifeSize x lifeSize packed torus at lifeDensity, at
// GOMAXPROCS threads (life-parallel) or ranks (life-dist).
const (
	lifeSize      = 2048
	lifeGens      = 32
	lifeDensity   = 0.3
	lifeMaxPhase  = 120 * time.Second // cap on a phase that has not reached its minimum count
	opTimeout     = 30 * time.Second  // an operation past this fails
	lifeWindowOps = 32                // operations per window of the quiet-quarter p50 and ops_per_s
	distWatchdog  = time.Second       // msgpass deadlock detector period
)

var errBoardMismatch = errors.New("board or live-update count differs from the serial reference")

// lifeRun is one life-parallel or life-dist run.
type lifeRun struct {
	cfg        runConfig
	dist       bool
	workers    int
	start      *life.Grid // the generated board
	ref        *life.Grid // start advanced lifeGens generations serially
	refUpdates int64      // cells that changed state on the way
	deadlocks  int
}

// setup generates the board from the seed, computes the serial reference
// and runs one checked warm-up operation.
func (l *lifeRun) setup() error {
	g, err := life.NewGrid(lifeSize, lifeSize, life.Torus)
	if err != nil {
		return err
	}
	g.Randomize(l.cfg.seed, lifeDensity)
	g.SetPacked(true)
	ref := g.Clone()
	l.refUpdates = ref.RunCounted(lifeGens)
	l.start, l.ref = g, ref
	return l.run(l.fresh(), nil, nil).err
}

// fresh returns a copy of the start board and collects garbage, so the
// timed operation neither pays for the copy nor inherits a GC cycle the
// copy started.
func (l *lifeRun) fresh() *life.Grid {
	g := l.start.Clone()
	runtime.GC()
	return g
}

// lifeOp is one timed operation.
type lifeOp struct {
	start    time.Time
	dur, cpu time.Duration
	comm     msgpass.WorldStats
	err      error
}

// run times one RunCtx on g and checks the result against the serial
// reference: the board must be Equal and the live-update count exact.
// A dist run arms the msgpass watchdog, so a deadlock fails the
// operation with the blocked ranks named instead of hanging it.
func (l *lifeRun) run(g *life.Grid, trace *obs.Trace, waits *obs.Histogram) lifeOp {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var op lifeOp
	var st *life.RunStats
	c0 := cpuTime()
	t0 := time.Now()
	if l.dist {
		dr := &life.DistRunner{G: g, Ranks: l.workers, Watchdog: distWatchdog, Trace: trace}
		st, op.err = dr.RunCtx(ctx, lifeGens)
		op.comm = dr.CommStats
	} else {
		pr := &life.ParallelRunner{G: g, Threads: l.workers, Trace: trace, BarrierWaits: waits}
		st, op.err = pr.RunCtx(ctx, lifeGens)
	}
	op.start, op.dur = t0, time.Since(t0)
	op.cpu = cpuTime() - c0
	if op.err != nil {
		var dl *msgpass.DeadlockError
		if errors.As(op.err, &dl) {
			l.deadlocks++
			fmt.Fprintf(l.cfg.log, "e2ebench: deadlock, blocked ranks: %v\n", dl.Cycle)
		}
		return op
	}
	if !g.Equal(l.ref) || st.LiveUpdates != l.refUpdates {
		op.err = errBoardMismatch
	}
	return op
}

func runLife(cfg runConfig) (*result, error) {
	l := &lifeRun{cfg: cfg, dist: cfg.workload == "life-dist", workers: runtime.GOMAXPROCS(0)}
	var probe speedProbe
	var setups []window
	steal := startStealSampler()
	defer steal.close()
	for k := 0; k < setupRepeats; k++ {
		probe.point()
		t0 := time.Now()
		if err := l.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, window{from: t0, to: time.Now(), value: time.Since(t0).Seconds()})
	}
	if cfg.trace {
		steal.close()
		return l.traced()
	}

	// One caller, back to back, for the measured time.
	resetPeakRSS()
	measured := time.Now()
	p := l.phase(cfg.seconds, lifeWindowOps, &probe)
	steal.close()
	p50Windows, err := windowedByCount(p.ops, lifeWindowOps, latencyQuantile(0.5))
	if err != nil {
		return nil, fmt.Errorf("p50: %w", err)
	}
	rateWindows, err := windowedByCount(p.ops, lifeWindowOps, busyRate)
	if err != nil {
		return nil, fmt.Errorf("ops_per_s: %w", err)
	}
	p50, rate := steal.quietMedian(p50Windows), steal.quietMedian(rateWindows)
	ok := p.attempted - p.failed
	fmt.Fprintf(cfg.log, "e2ebench: %d ops of %d generations on %d %s: %d ok, p50 %.3fms\n",
		p.attempted, lifeGens, l.workers, l.unit(), ok, p50)

	raw := endToEndFigures{
		setupS:     steal.quietMedian(setups),
		p50Ms:      p50,
		opsPerS:    rate,
		cpuMsPerOp: ratio(ms(p.cpu), float64(ok)),
	}
	m := newMetricSet(endToEnd)
	raw.atReference(&probe).set(m)
	m.set("success_frac", 1-ratio(float64(p.failed), float64(p.attempted)))
	m.set("mem_peak_mb", peakRSSMB())
	metrics, err := m.render(true)
	if err != nil {
		return nil, err
	}
	ungated := map[string]metric{"host.steal_frac": {Value: steal.frac(measured, time.Now()), Unit: "frac"}}
	raw.figures(ungated)
	probe.figures(ungated)
	// The p99 needs 1000 operations, which a run of --seconds 28 reaches
	// at the sizing host's usual speed; a slower run reports none.
	if p99, err := percentile(p.latencyMs, 0.99); err == nil {
		ungated["raw.p99_ms"] = metric{Value: p99, Unit: "ms"}
	} else {
		fmt.Fprintf(cfg.log, "e2ebench: p99: %v\n", err)
	}
	return &result{Correct: p.mismatches == 0, Attempted: p.attempted, Failed: p.failed, Metrics: metrics, Ungated: ungated}, nil
}

func (l *lifeRun) unit() string {
	if l.dist {
		return "ranks"
	}
	return "threads"
}

// lifePhase is the outcome of a run of untraced operations.
type lifePhase struct {
	attempted, failed, mismatches int
	ops                           []sample      // every operation, timed from its RunCtx call
	latencyMs                     []float64     // successful operations
	busy, cpu                     time.Duration // inside RunCtx, successful ops
}

// probeEvery is how many operations run between speed-probe points.
const probeEvery = 25

// phase runs untraced operations until d has passed and at least minOK
// have succeeded (or lifeMaxPhase has passed), taking a speed-probe point
// every probeEvery operations when probe is non-nil.
func (l *lifeRun) phase(d time.Duration, minOK int, probe *speedProbe) lifePhase {
	var p lifePhase
	start := time.Now()
	for {
		if probe != nil && p.attempted%probeEvery == 0 {
			probe.point()
		}
		el := time.Since(start)
		if (el >= d && len(p.latencyMs) >= minOK) || el >= lifeMaxPhase {
			return p
		}
		op := l.run(l.fresh(), nil, nil)
		p.ops = append(p.ops, sample{due: op.start, sent: op.start, done: op.start.Add(op.dur), err: op.err})
		p.attempted++
		if op.err != nil {
			p.failed++
			if errors.Is(op.err, errBoardMismatch) {
				p.mismatches++
			}
			if p.failed <= 5 {
				fmt.Fprintf(l.cfg.log, "e2ebench: op failed: %v\n", op.err)
			}
			continue
		}
		p.latencyMs = append(p.latencyMs, ms(op.dur))
		p.busy += op.dur
		p.cpu += op.cpu
	}
}

// serialReps is how many times the traced pass times the serial engine.
const serialReps = 5

// traced is the per-layer pass: untraced operations (phase A), then
// operations each recorded into a fresh Chrome trace (phase B) whose spans
// give the kernel, barrier and halo split, then the serial baseline.
func (l *lifeRun) traced() (*result, error) {
	aDur := time.Duration(float64(l.cfg.seconds) * traceShareA)
	a := l.phase(aDur, minSamplesFor(0.5), nil)
	aP50, err := percentile(a.latencyMs, 0.5)
	if err != nil {
		return nil, err
	}

	var waits *obs.Histogram
	if !l.dist {
		waits = obs.NewHistogram(l.workers)
	}
	var (
		b                           lifePhase
		spans                       = make(map[string]*spanTotals)
		comm                        msgpass.WorldStats
		allocBytes, gcCycles, drops uint64
		lastTrace                   []byte
		mem0, mem1                  runtime.MemStats
	)
	steal := startStealSampler()
	defer steal.close()
	bStart := time.Now()
	for time.Since(bStart) < l.cfg.seconds-aDur || len(b.latencyMs) < minSamplesFor(0.5) {
		tr := obs.New()
		g := l.fresh()
		runtime.ReadMemStats(&mem0)
		op := l.run(g, tr, waits)
		runtime.ReadMemStats(&mem1)
		b.attempted++
		if op.err != nil {
			b.failed++
			if errors.Is(op.err, errBoardMismatch) {
				b.mismatches++
			}
			fmt.Fprintf(l.cfg.log, "e2ebench: traced op failed: %v\n", op.err)
			if b.failed > 5 {
				return nil, fmt.Errorf("traced pass: %d operations failed", b.failed)
			}
			continue
		}
		b.latencyMs = append(b.latencyMs, ms(op.dur))
		b.busy += op.dur
		allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
		gcCycles += uint64(mem1.NumGC - mem0.NumGC)
		comm.Sends += op.comm.Sends
		comm.BytesSent += op.comm.BytesSent
		comm.Collectives += op.comm.Collectives

		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			return nil, fmt.Errorf("export trace: %w", err)
		}
		if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
			return nil, fmt.Errorf("trace fails validation: %w", err)
		}
		st, err := spanStats(buf.Bytes())
		if err != nil {
			return nil, err
		}
		for name, s := range st {
			t := spans[name]
			if t == nil {
				t = &spanTotals{}
				spans[name] = t
			}
			t.count += s.count
			t.totalNs += s.totalNs
			t.selfNs += s.selfNs
		}
		drops += tr.Drops()
		lastTrace = buf.Bytes()
	}

	steal.close()
	var serial []float64
	for k := 0; k < serialReps; k++ {
		g := l.fresh()
		t0 := time.Now()
		g.Run(lifeGens)
		serial = append(serial, ms(time.Since(t0)))
		if !g.Equal(l.ref) {
			b.mismatches++
		}
	}
	serialMs := median(serial)

	okB := float64(len(b.latencyMs))
	workers := float64(l.workers)
	busyNs := float64(b.busy)
	bP50, err := percentile(b.latencyMs, 0.5)
	if err != nil {
		return nil, err
	}
	gen := spans["generation"]
	if gen == nil {
		gen = &spanTotals{}
	}
	halo := spans["halo-exchange"]
	if halo == nil {
		halo = &spanTotals{}
	}
	w := waits.Snapshot()

	m := newMetricSet(perLayer)
	m.set("life.serial_ms_per_op", serialMs)
	m.set("life.gen_self_ms_mean", ratio(gen.selfNs/1e6, float64(gen.count)))
	m.set("life.gcell_per_s", float64(lifeSize*lifeSize*lifeGens)/(aP50/1e3)/1e9)
	m.set("life.bytes_per_gen", float64(2*lifeSize*((lifeSize+63)/64)*8))
	m.set("life.speedup", ratio(serialMs, aP50))
	m.set("life.efficiency", ratio(serialMs, aP50)/workers)
	m.set("life.live_updates", float64(l.refUpdates))
	m.set("life.halo_wait_frac", ratio(halo.totalNs, workers*busyNs))
	m.set("life.scatter_gather_ms", ratio(busyNs-gen.totalNs/workers, okB)/1e6)
	m.set("pthread.barrier_wait_frac", ratio(float64(w.Sum), workers*busyNs))
	m.set("pthread.barrier_wait_us_mean", ratio(float64(w.Sum)/1e3, float64(w.Count)))
	m.set("msgpass.msgs_per_op", ratio(float64(comm.Sends), okB))
	m.set("msgpass.bytes_per_op", ratio(float64(comm.BytesSent), okB))
	m.set("msgpass.collectives_per_op", ratio(float64(comm.Collectives), okB))
	m.set("msgpass.deadlocks", float64(l.deadlocks))
	m.set("go.alloc_bytes_per_op", ratio(float64(allocBytes), okB))
	m.set("go.gc_cycles_per_op", ratio(float64(gcCycles), okB))
	m.set("obs.trace_overhead_frac", ratio(bP50, aP50)-1)
	m.set("obs.dropped_events", float64(drops))
	m.set("host.steal_frac", steal.frac(time.Time{}, time.Now()))
	metrics, err := m.render(false)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(l.cfg.traceOut), 0o755); err != nil {
		return nil, fmt.Errorf("trace directory: %w", err)
	}
	if err := os.WriteFile(l.cfg.traceOut, lastTrace, 0o644); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(l.cfg.log, "e2ebench: traced %d ops (p50 %.3fms vs %.3fms untraced), serial %.3fms; wrote the last op's trace to %s\n",
		len(b.latencyMs), bP50, aP50, serialMs, l.cfg.traceOut)
	mismatches := a.mismatches + b.mismatches
	return &result{
		Correct:   mismatches == 0 && drops == 0,
		Attempted: a.attempted + b.attempted,
		Failed:    a.failed + b.failed,
		Metrics:   metrics,
	}, nil
}
