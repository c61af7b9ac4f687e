package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cs31/internal/obs"
)

// These run whole workloads briefly on this host; -short skips them.

func smokeConfig(t *testing.T, workload string, seconds time.Duration, trace bool) runConfig {
	if testing.Short() {
		t.Skip("runs a workload end to end")
	}
	return runConfig{
		workload: workload,
		seed:     7,
		seconds:  seconds,
		trace:    trace,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
		log:      io.Discard,
	}
}

func mustRun(t *testing.T, cfg runConfig) map[string]metric {
	t.Helper()
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res.Metrics
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
}

// The traced serve-hot pass: nearly every request is a memo hit, the
// labd stages add up to the handler time, handler plus outside time adds
// up to the client time, and the Chrome trace validates with no drops.
func TestServeHotTracedSmoke(t *testing.T) {
	cfg := smokeConfig(t, "serve-hot", 2*time.Second, true)
	m := mustRun(t, cfg)
	if hr := m["memo.hit_ratio"].Value; hr < 0.95 {
		t.Errorf("memo.hit_ratio = %v, want >= 0.95", hr)
	}
	stages := m["labd.queue_wait_ms_mean"].Value + m["labd.job_ms_mean"].Value +
		m["labd.marshal_ms_mean"].Value + m["labd.rest_ms_mean"].Value
	if h := m["labd.handler_ms_mean"].Value; math.Abs(stages-h) > 1e-9 {
		t.Errorf("stages + rest = %v, handler %v", stages, h)
	}
	sum := m["labd.handler_ms_mean"].Value + m["http.outside_handler_ms_mean"].Value
	if c := m["http.client_ms_mean"].Value; math.Abs(sum-c) > 1e-9 {
		t.Errorf("handler + outside = %v, client %v", sum, c)
	}
	if d := m["obs.dropped_events"].Value; d != 0 {
		t.Errorf("obs.dropped_events = %v", d)
	}
	checkTraceFile(t, cfg.traceOut)
}

// The untraced serve-cold pass prints every end-to-end metric; its
// sampled replies all match the cache-disabled twin.
func TestServeColdSmoke(t *testing.T) {
	m := mustRun(t, smokeConfig(t, "serve-cold", 4*time.Second, false))
	for _, d := range endToEnd {
		if v := m[d.name].Value; v <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, v)
		}
	}
}

// The traced life-dist pass runs the msgpass halo exchange bit-for-bit
// against the serial reference, with the watchdog armed.
func TestLifeDistTracedSmoke(t *testing.T) {
	cfg := smokeConfig(t, "life-dist", time.Second, true)
	m := mustRun(t, cfg)
	if m["msgpass.msgs_per_op"].Value == 0 || m["life.halo_wait_frac"].Value == 0 {
		t.Errorf("no message traffic recorded: %v msgs/op, halo %v", m["msgpass.msgs_per_op"].Value, m["life.halo_wait_frac"].Value)
	}
	if m["msgpass.deadlocks"].Value != 0 {
		t.Errorf("deadlocks: %v", m["msgpass.deadlocks"].Value)
	}
	checkTraceFile(t, cfg.traceOut)
}
