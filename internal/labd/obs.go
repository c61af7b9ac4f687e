package labd

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cs31/internal/memo"
	"cs31/internal/obs"
)

// requestIDHeader carries the per-request ID the access-log line also
// records, so a log entry, a trace span, and a client-side error report
// all join on one value.
const requestIDHeader = "X-Labd-Request-Id"

// serverObs bundles the daemon's observability state: a Prometheus-style
// registry (nil when Config.DisableMetrics) and a trace recorder (nil
// unless Config.Trace is set). The whole struct is nil when both are
// off, so the request path pays a single pointer check.
type serverObs struct {
	reg   *obs.Registry
	trace *obs.Trace

	reqSeq atomic.Uint64 // request-ID source

	// httpLane is the shared request timeline: every HTTP goroutine
	// records Complete (X) events on it — the one event kind the MPSC
	// lane supports from many writers (B/E nesting needs a single
	// owner; see internal/obs).
	httpLane *obs.Lane
	nRequest obs.Name // "request", args: status, id
	nMarshal obs.Name // "marshal"

	marshal *obs.Histogram // encode+write time of cold responses

	mu        sync.RWMutex
	endpoints map[string]*endpointObs // by route pattern
	outcomes  map[string]*cacheObs    // by cached-endpoint name
}

// endpointObs is one route's request-duration histogram plus its
// response counters by exact HTTP status, each registered the first time
// the route answers with that status.
type endpointObs struct {
	dur    *obs.Histogram
	status map[int]*obs.Counter
}

// EndpointSnapshot is the exported view of one route's series.
type EndpointSnapshot struct {
	Endpoint  string           `json:"endpoint"`
	Requests  int64            `json:"requests"`
	ByStatus  map[string]int64 `json:"by_status"`
	LatencyMs LatencySnapshot  `json:"latency_ms"`
}

// LatencySnapshot summarizes a route's latency histogram: the exact mean
// in milliseconds, and the non-empty power-of-two buckets keyed by their
// upper bound in nanoseconds ("le_1048576ns" holds requests <= 2^20 ns).
type LatencySnapshot struct {
	MeanMs  float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets"`
}

// cacheObs is one cached endpoint's per-outcome latency histograms:
// how long a hit, a miss, and a coalesced wait each take end to end.
type cacheObs struct {
	byOutcome [3]*obs.Histogram // indexed by memo.Outcome
}

func newServerObs(cfg *Config) *serverObs {
	if cfg.DisableMetrics && cfg.Trace == nil {
		return nil
	}
	o := &serverObs{
		trace:     cfg.Trace,
		endpoints: make(map[string]*endpointObs),
		outcomes:  make(map[string]*cacheObs),
	}
	if !cfg.DisableMetrics {
		o.reg = obs.NewRegistry()
		o.marshal = o.reg.Histogram("labd_marshal_duration_seconds",
			"Time to encode and write a cold response body.", "", 4)
	}
	if o.trace != nil {
		o.httpLane = o.trace.Lane("http")
		o.nRequest = o.trace.Name("request", "status", "id")
		o.nMarshal = o.trace.Name("marshal")
	}
	return o
}

// nextRequestID mints the request's ID: a process-unique hex counter,
// cheap enough to stamp on every request including cache hits.
func (o *serverObs) nextRequestID() (uint64, string) {
	n := o.reqSeq.Add(1)
	return n, strconv.FormatUint(n, 16)
}

// series returns the route's duration histogram and its counter for
// status, registering either on first sighting. The read-locked fast
// path is two map lookups; creation re-checks under the write lock.
func (o *serverObs) series(pattern string, status int) (*obs.Histogram, *obs.Counter) {
	o.mu.RLock()
	eo := o.endpoints[pattern]
	var c *obs.Counter
	if eo != nil {
		c = eo.status[status]
	}
	o.mu.RUnlock()
	if c != nil {
		return eo.dur, c
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	route := obs.Label("route", pattern)
	if eo = o.endpoints[pattern]; eo == nil {
		eo = &endpointObs{status: make(map[int]*obs.Counter)}
		eo.dur = o.reg.Histogram("labd_request_duration_seconds",
			"End-to-end request latency by route.", route, 4)
		o.endpoints[pattern] = eo
	}
	if c = eo.status[status]; c == nil {
		c = o.reg.Counter("labd_responses_total", "Responses by route and HTTP status.",
			route+","+obs.Label("status", strconv.Itoa(status)))
		eo.status[status] = c
	}
	return eo.dur, c
}

// observeRequest records one finished request, the only place a request
// is counted: duration histogram, exact-status counter, and (when
// tracing) an X span on the shared http lane carrying the status and
// request ID.
func (o *serverObs) observeRequest(pattern string, status int, start time.Time, d time.Duration, id uint64) {
	if o.reg != nil {
		dur, c := o.series(pattern, status)
		c.Inc()
		dur.Observe(int64(d))
	}
	o.httpLane.CompleteArgs(o.nRequest, start, int64(status), int64(id))
}

// Endpoints snapshots every route's request count, responses by exact
// status and latency histogram, sorted by route. They are read from the
// obs registry's series, so /debug/vars and /metrics report one record;
// nil when metrics are disabled.
func (s *Server) Endpoints() []EndpointSnapshot {
	o := s.obs
	if o == nil || o.reg == nil {
		return nil
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]EndpointSnapshot, 0, len(o.endpoints))
	for route, eo := range o.endpoints {
		h := eo.dur.Snapshot()
		ep := EndpointSnapshot{
			Endpoint:  route,
			Requests:  h.Count,
			ByStatus:  make(map[string]int64, len(eo.status)),
			LatencyMs: LatencySnapshot{Buckets: make(map[string]int64)},
		}
		for st, c := range eo.status {
			ep.ByStatus[strconv.Itoa(st)] = c.Value()
		}
		if h.Count > 0 {
			ep.LatencyMs.MeanMs = float64(h.Sum) / float64(h.Count) / float64(time.Millisecond)
		}
		for i, n := range h.Counts {
			if n > 0 {
				ep.LatencyMs.Buckets["le_"+strconv.FormatUint(1<<uint(i), 10)+"ns"] = n
			}
		}
		out = append(out, ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// observeMarshal records the encode+write time of a cold response.
func (o *serverObs) observeMarshal(start time.Time) {
	o.marshal.Observe(int64(time.Since(start)))
	o.httpLane.Complete(o.nMarshal, start)
}

// observeCacheOutcome records how long a memoized request took, split
// by how the cache served it (hit / miss / coalesced).
func (o *serverObs) observeCacheOutcome(endpoint string, out memo.Outcome, d time.Duration) {
	if o.reg == nil || out > memo.Coalesced {
		return
	}
	o.mu.RLock()
	co := o.outcomes[endpoint]
	o.mu.RUnlock()
	if co == nil {
		o.mu.Lock()
		if co = o.outcomes[endpoint]; co == nil {
			co = &cacheObs{}
			for i, name := range []string{"miss", "hit", "coalesced"} {
				co.byOutcome[i] = o.reg.Histogram("labd_cache_request_duration_seconds",
					"Memoized request latency by endpoint and cache outcome.",
					obs.Label("endpoint", endpoint)+","+obs.Label("outcome", name), 4)
			}
			o.outcomes[endpoint] = co
		}
		o.mu.Unlock()
	}
	co.byOutcome[out].Observe(int64(d))
}

// registerScrapeFuncs exposes counters kept elsewhere as scrape-time
// Prometheus series, read fresh on every GET /metrics with zero
// per-request cost. Each is a view of the only copy: the scheduler's and
// the caches' own counters, the route series summed through Endpoints,
// and the server's start time.
func (s *Server) registerScrapeFuncs() {
	r := s.obs.reg
	if r == nil {
		return
	}
	sc := s.sched
	r.CounterFunc("labd_scheduler_submitted_total", "Jobs accepted into the bounded queue.", "",
		func() int64 { return sc.submitted.Load() })
	r.CounterFunc("labd_scheduler_rejected_total", "Jobs refused with queue-full backpressure.", "",
		func() int64 { return sc.rejected.Load() })
	r.CounterFunc("labd_scheduler_completed_total", "Jobs a worker ran to completion.", "",
		func() int64 { return sc.completed.Load() })
	r.CounterFunc("labd_scheduler_skipped_total", "Jobs whose context expired while queued.", "",
		func() int64 { return sc.skipped.Load() })
	r.GaugeFunc("labd_scheduler_active_jobs", "Jobs executing on a worker right now.", "",
		func() int64 { return sc.active.Load() })
	r.GaugeFunc("labd_queue_len", "Jobs waiting in the bounded queue.", "",
		func() int64 { return int64(len(sc.queue)) })
	r.GaugeFunc("labd_queue_cap", "Bounded queue capacity.", "",
		func() int64 { return int64(cap(sc.queue)) })
	r.GaugeFunc("labd_queue_hwm", "Deepest the queue has ever been.", "",
		func() int64 { return sc.queueHWM.Load() })
	r.GaugeFunc("labd_workers", "Worker pool size.", "",
		func() int64 { return int64(sc.workers) })
	r.CounterFunc("labd_requests_total", "HTTP requests served.", "", func() int64 {
		var n int64
		for _, ep := range s.Endpoints() {
			n += ep.Requests
		}
		return n
	})
	r.GaugeFunc("labd_uptime_seconds", "Seconds since the server started.", "",
		func() int64 { return int64(time.Since(s.start) / time.Second) })
	for name, c := range s.caches {
		c := c
		ep := obs.Label("endpoint", name)
		r.CounterFunc("labd_cache_hits_total", "Memoization hits by endpoint.", ep,
			func() int64 { return c.Stats().Hits })
		r.CounterFunc("labd_cache_misses_total", "Memoization misses by endpoint.", ep,
			func() int64 { return c.Stats().Misses })
		r.CounterFunc("labd_cache_coalesced_total", "Requests that waited on another's computation.", ep,
			func() int64 { return c.Stats().Coalesced })
		r.CounterFunc("labd_cache_evictions_total", "LRU evictions by endpoint.", ep,
			func() int64 { return c.Stats().Evictions })
		r.GaugeFunc("labd_cache_entries", "Resident cache entries by endpoint.", ep,
			func() int64 { return int64(c.Stats().Entries) })
		r.GaugeFunc("labd_cache_bytes", "Resident cache bytes by endpoint.", ep,
			func() int64 { return c.Stats().Bytes })
	}
}
