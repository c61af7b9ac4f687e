package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Ungated holds figures the run measures and reports (on standard
	// error and in --out records) but that are not end-to-end metrics
	// with a regression bound, because their run-to-run spread on a
	// shared host exceeds any bound the benchmark may set (README.md).
	Ungated map[string]metric `json:"-"`
}

// endToEnd lists the untraced pass's metrics with their units; every
// workload reports all of them. README.md defines each. The p99 latency
// is measured too but reported ungated (see result.Ungated).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"success_frac", "frac"},
	{"mem_peak_mb", "MiB"},
}

// perLayer lists the traced pass's metrics. Every workload prints every
// one; a metric of a layer the workload does not use reads 0.
var perLayer = []metricDef{
	{"loadgen.lag_p99_ms", "ms"},
	{"http.client_ms_p50", "ms"},
	{"http.client_ms_mean", "ms"},
	{"http.outside_handler_ms_p50", "ms"},
	{"http.outside_handler_ms_mean", "ms"},
	{"labd.handler_ms_p50", "ms"},
	{"labd.handler_ms_p99", "ms"},
	{"labd.handler_ms_mean", "ms"},
	{"labd.queue_wait_ms_mean", "ms"},
	{"labd.job_ms_mean", "ms"},
	{"labd.marshal_ms_mean", "ms"},
	{"labd.rest_ms_mean", "ms"},
	{"labd.worker_busy_frac", "frac"},
	{"labd.rejected_frac", "frac"},
	{"labd.resp_bytes_mean", "bytes"},
	{"labd.miss_ms_mean.asm", "ms"},
	{"labd.miss_ms_mean.minic", "ms"},
	{"labd.miss_ms_mean.cache", "ms"},
	{"labd.miss_ms_mean.vm", "ms"},
	{"labd.miss_ms_mean.life", "ms"},
	{"labd.miss_ms_mean.homework", "ms"},
	{"labd.miss_ms_mean.survey", "ms"},
	{"memo.hit_ratio", "frac"},
	{"memo.coalesced_frac", "frac"},
	{"memo.hit_ms_mean", "ms"},
	{"memo.entries", "count"},
	{"memo.bytes", "bytes"},
	{"memo.evictions", "count"},
	{"life.serial_ms_per_op", "ms"},
	{"life.gen_self_ms_mean", "ms"},
	{"life.gcell_per_s", "Gcell/s"},
	{"life.bytes_per_gen", "bytes_computed"},
	{"life.speedup", "x"},
	{"life.efficiency", "frac"},
	{"life.live_updates", "count"},
	{"life.halo_wait_frac", "frac"},
	{"life.scatter_gather_ms", "ms"},
	{"pthread.barrier_wait_frac", "frac"},
	{"pthread.barrier_wait_us_mean", "us"},
	{"msgpass.msgs_per_op", "count"},
	{"msgpass.bytes_per_op", "bytes"},
	{"msgpass.collectives_per_op", "count"},
	{"msgpass.deadlocks", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles_per_op", "count"},
	{"obs.trace_overhead_frac", "frac"},
	{"obs.dropped_events", "count"},
	{"host.steal_frac", "frac"},
}

type metricDef struct{ name, unit string }

// metricSet collects one pass's figures against its definition list.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64)}
}

// set records a figure; naming a metric the list does not define is a bug.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic("metric " + name + " is not defined")
}

// render returns every defined metric. With required set, a metric never
// recorded is an error; otherwise it reads 0 (its layer was not used).
func (m *metricSet) render(required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(m.defs))
	var missing []string
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		if !ok && required {
			missing = append(missing, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}
