package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cs31/internal/labd"
	"cs31/internal/obs"
)

// Load shape, sized on a 2-vCPU Xeon VM (see README.md). The closed loop
// there sustained about 6500-8000 hits/s and 1400-1700 cold requests/s;
// the open-loop rates sit at about a fifth and a tenth of that, because
// at half capacity the generator sharing the two vCPUs and bursts of
// hypervisor steal swung the open-loop latencies by 2-5x between runs,
// and a burst that halves the host's speed must not push the open loop
// into queueing. serve-hot's rate is not lower still: at 1000/s the
// vCPUs sleep between requests more often, and every request paid more
// for waking them (p50 0.33-0.40 ms against 0.29 ms at 1500/s).
const (
	hotRate         = 1500 // serve-hot open-loop arrivals per second
	coldRate        = 150  // serve-cold open-loop arrivals per second
	hotPerEndpoint  = 8    // hot-set requests per endpoint
	requestTimeout  = 5 * time.Second
	setupRepeats    = 9               // set-ups per run; setup_s is their quiet-quarter median
	coldWarm        = 64              // cold requests sent during set-up
	coldMemoBytes   = 2 << 20         // serve-cold's memo budget (see serveRun.memoBytes)
	coldSampleEvery = 16              // one cold response in this many is checked against the twin
	serveCycle      = 3 * time.Second // one closed-loop block then one open-loop block
	closedBlock     = time.Second     // closed-loop part of a cycle
	rateWindow      = time.Second / 2 // closed-loop window ops_per_s is taken over
	p50Window       = time.Second / 2 // open-loop window p50_ms is taken over
)

const (
	requestIDHeader = "X-Labd-Request-Id"
)

// serveEnv is one labd server listening on loopback with its client.
type serveEnv struct {
	srv    *labd.Server
	hs     *http.Server
	done   chan struct{} // closed when Serve returns
	base   string
	client *http.Client
	timer  *handlerTimer // traced servers only
	trace  *obs.Trace    // traced servers only
}

// startServe starts labd on an ephemeral loopback port with the
// configuration cmd/labd ships, except for a memo budget of memoBytes
// when that is not zero. A traced server also records a Chrome trace and
// wraps the handler to time every request.
func startServe(traced bool, memoBytes int64) (*serveEnv, error) {
	e := &serveEnv{done: make(chan struct{})}
	cfg := labd.Config{Cache: labd.CacheConfig{MaxBytes: memoBytes}}
	if traced {
		e.trace = obs.New()
		cfg.Trace = e.trace
	}
	e.srv = labd.New(cfg)
	h := e.srv.Handler()
	if traced {
		e.timer = newHandlerTimer(h)
		h = e.timer
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = e.srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	e.hs = &http.Server{Handler: h, ReadHeaderTimeout: requestTimeout}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			DisableCompression:  true,
		},
	}
	return e, nil
}

// close stops the listener, waits for in-flight requests, drains labd's
// workers and closes the client's connections.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx)
	<-e.done
	_ = e.srv.Shutdown(ctx)
	e.client.CloseIdleConnections()
}

// reply is what the client saw of one request.
type reply struct {
	body   []byte
	id     string        // X-Labd-Request-Id
	client time.Duration // send to last body byte
}

// send performs r and reads the whole body. Anything but a 200 is an error.
func (e *serveEnv) send(r *request) (reply, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, e.base+r.path, body)
	if err != nil {
		return reply{}, fmt.Errorf("build %s: %w", r.describe(), err)
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("%s: %w", r.describe(), err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{body: b, id: resp.Header.Get(requestIDHeader), client: time.Since(t0)}
	if err != nil {
		return rep, fmt.Errorf("%s: read body: %w", r.describe(), err)
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("%s: status %d: %.200s", r.describe(), resp.StatusCode, b)
	}
	return rep, nil
}

// scrape reads the server's GET /metrics exposition.
func (e *serveEnv) scrape() (promSnapshot, error) {
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// handlerTimer wraps labd's root handler and times each /v1 request's
// ServeHTTP, keyed by the request ID labd stamps on the response, so the
// client's time can be split into handler time and the rest.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	byID map[string]time.Duration
}

func newHandlerTimer(next http.Handler) *handlerTimer {
	return &handlerTimer{next: next, byID: make(map[string]time.Duration)}
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		id := w.Header().Get(requestIDHeader)
		h.mu.Lock()
		h.byID[id] = d
		h.mu.Unlock()
	}
}

// take returns the recorded times and starts a fresh record.
func (h *handlerTimer) take() map[string]time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.byID
	h.byID = make(map[string]time.Duration)
	return m
}

// twin is a cache-disabled labd called in-process: the reference every
// served response is byte-compared against.
type twin struct{ srv *labd.Server }

func newTwin() *twin {
	return &twin{srv: labd.New(labd.Config{Cache: labd.CacheConfig{Disable: true}, DisableMetrics: true})}
}

func (t *twin) reply(r *request) ([]byte, error) {
	rec := httptest.NewRecorder()
	t.srv.Handler().ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("twin %s: status %d: %.200s", r.describe(), rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

func (t *twin) close() { _ = t.srv.Shutdown(context.Background()) }

// serveRun is one serve-hot or serve-cold run.
type serveRun struct {
	cfg  runConfig
	hot  *hotSet  // serve-hot only
	refs [][]byte // serve-hot: twin reply per hot-set request
	twin *twin

	mismatches atomic.Int64
	sampleMu   sync.Mutex
	samples    map[uint64][]byte // serve-cold: tag -> body of sampled replies
}

func (s *serveRun) isHot() bool { return s.cfg.workload == "serve-hot" }

// rate is the workload's open-loop arrival rate.
func (s *serveRun) rate() float64 {
	if s.isHot() {
		return hotRate
	}
	return coldRate
}

// memoBytes is the memo budget labd runs with: cmd/labd's default on
// serve-hot, whose hot set fits in it many times over; coldMemoBytes on
// serve-cold, so that the memo is full and evicting after the first
// seconds of the measured phase. With the default 32 MiB it would grow
// by every reply of the run, and the run's peak memory would follow how
// many requests the host's speed let it complete.
func (s *serveRun) memoBytes() int64 {
	if s.isHot() {
		return 0
	}
	return coldMemoBytes
}

// references computes, once per run and before the timed set-ups, what
// the served replies are checked against: the cache-disabled twin and, on
// serve-hot, the hot set with the twin's reply to each of its requests.
func (s *serveRun) references() error {
	s.twin = newTwin()
	if !s.isHot() {
		return nil
	}
	s.hot = newHotSet(s.cfg.seed, hotPerEndpoint)
	s.refs = make([][]byte, len(s.hot.reqs))
	for j := range s.hot.reqs {
		var err error
		if s.refs[j], err = s.twin.reply(&s.hot.reqs[j]); err != nil {
			return err
		}
	}
	return nil
}

// setup starts a server and readies it for the measured phases: serve-hot
// warms the memo with every hot request, byte-checking each reply;
// serve-cold warms the engines with coldWarm distinct requests, each
// checked against the twin.
func (s *serveRun) setup(traced bool) (*serveEnv, error) {
	env, err := startServe(traced, s.memoBytes())
	if err != nil {
		return nil, err
	}
	if s.isHot() {
		for j := range s.hot.reqs {
			rep, err := env.send(&s.hot.reqs[j])
			if err == nil && !bytes.Equal(rep.body, s.refs[j]) {
				err = fmt.Errorf("warm %s: reply differs from the twin", s.hot.reqs[j].describe())
			}
			if err != nil {
				env.close()
				return nil, err
			}
		}
		return env, nil
	}
	for i := 0; i < coldWarm; i++ {
		r := coldRequest(s.cfg.seed, tagWarm+uint64(i))
		rep, err := env.send(&r)
		if err == nil {
			var want []byte
			if want, err = s.twin.reply(&r); err == nil && !bytes.Equal(rep.body, want) {
				err = fmt.Errorf("warm %s: reply differs from the twin", r.describe())
			}
		}
		if err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// prepare returns the loop operation for env: serve-hot draws from the
// hot set and byte-checks every reply against its reference; serve-cold
// sends request tagBase+i and keeps a seeded sample of replies for the
// twin check after the phase. rec, when non-nil, receives each reply.
func (s *serveRun) prepare(env *serveEnv, tagBase uint64, rec func(i int, rep reply)) prepareFunc {
	return func(i int) func() error {
		if s.isHot() {
			j := s.hot.draw(i)
			return func() error {
				rep, err := env.send(&s.hot.reqs[j])
				if err != nil {
					return err
				}
				if rec != nil {
					rec(i, rep)
				}
				if !bytes.Equal(rep.body, s.refs[j]) {
					s.mismatches.Add(1)
					return fmt.Errorf("%s: reply differs from the twin", s.hot.reqs[j].describe())
				}
				return nil
			}
		}
		tag := tagBase + uint64(i)
		r := coldRequest(s.cfg.seed, tag)
		return func() error {
			rep, err := env.send(&r)
			if err != nil {
				return err
			}
			if rec != nil {
				rec(i, rep)
			}
			if s.sampled(tag) {
				s.sampleMu.Lock()
				s.samples[tag] = rep.body
				s.sampleMu.Unlock()
			}
			return nil
		}
	}
}

// sampled picks the cold replies checked against the twin: a seeded
// choice, independent of timing.
func (s *serveRun) sampled(tag uint64) bool {
	return uint64(mix(s.cfg.seed, tag^0x5bd1e995))%coldSampleEvery == 0
}

// checkSamples recomputes every sampled cold reply on the twin, on
// GOMAXPROCS goroutines, and returns how many were checked and how many
// differed (or could not be recomputed), logging the first difference.
func (s *serveRun) checkSamples() (checked, bad int) {
	tags := make(chan uint64)
	var wg sync.WaitGroup
	var nbad atomic.Int64
	var logOnce sync.Once
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tag := range tags {
				r := coldRequest(s.cfg.seed, tag)
				want, err := s.twin.reply(&r)
				if err == nil && !bytes.Equal(s.samples[tag], want) {
					err = fmt.Errorf("%s (tag %d): reply differs from the twin", r.describe(), tag)
				}
				if err != nil {
					nbad.Add(1)
					logOnce.Do(func() { fmt.Fprintf(s.cfg.log, "e2ebench: %v\n", err) })
				}
			}
		}()
	}
	for tag := range s.samples {
		tags <- tag
	}
	close(tags)
	wg.Wait()
	return len(s.samples), int(nbad.Load())
}

// tally accumulates attempted/failed operations and logs the first few
// failures of a run.
type tally struct {
	attempted, failed int
	logged            int
	log               io.Writer
}

func (t *tally) add(samples []sample) {
	for _, sm := range samples {
		t.attempted++
		if sm.err != nil {
			t.failed++
			if t.logged < 5 {
				t.logged++
				fmt.Fprintf(t.log, "e2ebench: failed: %v\n", sm.err)
			}
		}
	}
}

// clients is the number of concurrent callers of both loops: 4*GOMAXPROCS
// stays within labd's default workers plus queue depth (5*GOMAXPROCS), so
// the daemon never sheds this load with 429s. In the closed loop it keeps
// requests queued while others are handed between goroutines, so the
// loop measures what the CPUs sustain; with only GOMAXPROCS callers the
// vCPUs idled through every hand-off, and throughput followed the host's
// wake-up latency (down by a third for minutes at a time, with no steal).
func clients() int { return 4 * runtime.GOMAXPROCS(0) }

// openLoop is the workload's arrival schedule for a phase of length d.
func (s *serveRun) openLoop(d time.Duration) openLoop {
	return openLoop{Rate: s.rate(), Conns: clients(), Duration: d, Grace: 2 * requestTimeout}
}

// finish runs the cold twin check and folds its differences into t; it
// reports whether every checked output matched.
func (s *serveRun) finish(t *tally) bool {
	if s.isHot() {
		return s.mismatches.Load() == 0
	}
	checked, bad := s.checkSamples()
	t.failed += bad
	fmt.Fprintf(s.cfg.log, "e2ebench: %d sampled cold replies (1 in %d) checked against the twin, %d differ\n", checked, coldSampleEvery, bad)
	return bad == 0 && s.mismatches.Load() == 0
}

func runServe(cfg runConfig) (*result, error) {
	s := &serveRun{cfg: cfg, samples: make(map[uint64][]byte)}
	if err := s.references(); err != nil {
		s.twin.close()
		return nil, fmt.Errorf("references: %w", err)
	}
	defer s.twin.close()
	var probe speedProbe
	var env *serveEnv
	var setups []window
	steal := startStealSampler()
	defer steal.close()
	for k := 0; k < setupRepeats; k++ {
		if env != nil {
			env.close()
		}
		probe.point()
		t0 := time.Now()
		var err error
		if env, err = s.setup(false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, window{from: t0, to: time.Now(), value: time.Since(t0).Seconds()})
	}
	if cfg.trace {
		return s.traced(env)
	}
	defer env.close()

	// The closed and open loops alternate in cycles, so a stretch of
	// interference from the host lands on windows of both. The speed
	// probe runs between blocks, outside every timed and CPU-counted
	// stretch.
	t := &tally{log: cfg.log}
	conns := clients()
	cycles := int(cfg.seconds / serveCycle)
	if cycles < 1 {
		cycles = 1
	}
	ol := s.openLoop(serveCycle - closedBlock)
	// Each block is reduced to its windows and tallies as soon as it ends,
	// so the samples a run keeps do not grow with the host's speed and
	// move mem_peak_mb. Only the open loop's latencies and lags stay.
	var rateWins, p50Wins []window
	var closed, open phaseSummary
	var cpu time.Duration
	resetPeakRSS()
	measured := time.Now()
	for k := 0; k < cycles; k++ {
		probe.point()
		c0 := cpuTime()
		cs := closedLoop(conns, closedBlock, closed.attempted, s.prepare(env, tagClosed, nil))
		cpu += cpuTime() - c0
		probe.point()
		c0 = cpuTime()
		ops := ol.run(s.prepare(env, tagOpen+uint64(k*ol.count()), nil))
		cpu += cpuTime() - c0

		ws, err := windowed([]block{newBlock(cs, closedBlock)}, rateWindow, okRate(rateWindow))
		if err != nil {
			return nil, fmt.Errorf("ops_per_s: %w", err)
		}
		rateWins = append(rateWins, ws...)
		if ws, err = windowed([]block{newBlock(ops, ol.Duration)}, p50Window, latencyQuantile(0.5)); err != nil {
			return nil, fmt.Errorf("p50: %w", err)
		}
		p50Wins = append(p50Wins, ws...)
		t.add(cs)
		t.add(ops)
		closed.merge(summarize(cs))
		open.merge(summarize(ops))
	}
	peakMB := peakRSSMB()
	steal.close()
	okOps := t.attempted - t.failed
	p50, rate := steal.quietMedian(p50Wins), steal.quietMedian(rateWins)
	lag50, _ := percentile(open.lagMs, 0.5)
	lag99, _ := percentile(open.lagMs, 0.99)
	fmt.Fprintf(cfg.log, "e2ebench: %d cycles; closed loop, %d conns: %d ok of %d; open loop %.0f/s on %d senders: %d ok of %d, lag p50 %.3fms p99 %.3fms; host steal %.2f%%\n",
		cycles, conns, closed.attempted-closed.failed, closed.attempted, ol.Rate, ol.Conns, open.attempted-open.failed, open.attempted, lag50, lag99, 100*steal.frac(measured, time.Now()))
	correct := s.finish(t)

	raw := endToEndFigures{
		setupS:     steal.quietMedian(setups),
		p50Ms:      p50,
		opsPerS:    rate,
		cpuMsPerOp: ratio(ms(cpu), float64(okOps)),
	}
	m := newMetricSet(endToEnd)
	raw.atReference(&probe).set(m)
	m.set("success_frac", 1-ratio(float64(t.failed), float64(t.attempted)))
	m.set("mem_peak_mb", peakMB)
	metrics, err := m.render(true)
	if err != nil {
		return nil, err
	}
	ungated := map[string]metric{
		"loadgen.lag_p99_ms": {Value: lag99, Unit: "ms"},
		"host.steal_frac":    {Value: steal.frac(measured, time.Now()), Unit: "frac"},
	}
	raw.figures(ungated)
	probe.figures(ungated)
	if p99, err := percentile(open.latencyMs, 0.99); err == nil {
		ungated["raw.p99_ms"] = metric{Value: p99, Unit: "ms"}
	} else {
		fmt.Fprintf(cfg.log, "e2ebench: p99: %v\n", err)
	}
	return &result{Correct: correct, Attempted: t.attempted, Failed: t.failed, Metrics: metrics, Ungated: ungated}, nil
}

// traceShareA is the share of a traced run spent on the untraced
// comparison phase that obs.trace_overhead_frac is measured against.
const traceShareA = 0.35

// cacheTotals sums labd's per-endpoint memo counters.
func cacheTotals(srv *labd.Server) labd.CacheSnapshot {
	var t labd.CacheSnapshot
	for _, c := range srv.CacheStats() {
		t.Hits += c.Hits
		t.Misses += c.Misses
		t.Coalesced += c.Coalesced
		t.Evictions += c.Evictions
		t.Entries += c.Entries
		t.Bytes += c.Bytes
	}
	return t
}

// drainer periodically moves a trace's ring contents into its history so
// a long phase drops no events; stop waits for the goroutine to exit.
type drainer struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func startDrainer(t *obs.Trace) *drainer {
	d := &drainer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				t.Events()
				return
			case <-tick.C:
				t.Events()
			}
		}
	}()
	return d
}

func (d *drainer) close() {
	d.once.Do(func() { close(d.stop) })
	<-d.done
}

// traced is the per-layer pass: an untraced open-loop phase (A) on env,
// then the same schedule on a fresh traced server (B), with the handler
// wrapped, /metrics scraped around the phase and a Chrome trace written.
func (s *serveRun) traced(env *serveEnv) (*result, error) {
	t := &tally{log: s.cfg.log}
	aDur := time.Duration(float64(s.cfg.seconds) * traceShareA)
	aSamples := s.openLoop(aDur).run(s.prepare(env, tagOpen, nil))
	env.close()
	t.add(aSamples)
	a := summarize(aSamples)

	tenv, err := s.setup(true)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer tenv.close()
	tenv.timer.take() // drop the warm-up requests
	before, err := tenv.scrape()
	if err != nil {
		return nil, err
	}
	cache0, sched0 := cacheTotals(tenv.srv), tenv.srv.SchedStats()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	dr := startDrainer(tenv.trace)
	defer dr.close()
	steal := startStealSampler()
	defer steal.close()

	// Phase B runs for the rest of the measured time, and at least long
	// enough for labd.handler_ms_p99 under the percentile rule.
	bDur := s.cfg.seconds - aDur
	if minB := time.Duration(float64(minSamplesFor(0.99)) / s.rate() * float64(time.Second)); bDur < minB {
		bDur = minB.Round(time.Second) + time.Second
	}
	ol := s.openLoop(bDur)
	n := ol.count()
	ids, clientMs, respBytes := make([]string, n), make([]float64, n), make([]int, n)
	rec := func(i int, rep reply) { ids[i], clientMs[i], respBytes[i] = rep.id, ms(rep.client), len(rep.body) }
	bSamples := ol.run(s.prepare(tenv, tagOpen+1<<24, rec))

	runtime.ReadMemStats(&mem1)
	steal.close()
	dr.close()
	after, err := tenv.scrape()
	if err != nil {
		return nil, err
	}
	cache1, sched1 := cacheTotals(tenv.srv), tenv.srv.SchedStats()
	handlerTimes := tenv.timer.take()
	t.add(bSamples)
	b := summarize(bSamples)
	okB := float64(b.attempted - b.failed)

	client, handler, outside, bytesSum := joinHandlerTimes(bSamples, ids, clientMs, respBytes, handlerTimes)
	var handlerAll []float64
	for _, h := range handlerTimes {
		handlerAll = append(handlerAll, ms(h))
	}
	nHandled := float64(len(handlerAll))
	split := splitStages(mean(handlerAll), nHandled,
		histogramDelta(before, after, "labd_queue_wait_seconds", ""),
		histogramDelta(before, after, "labd_handler_duration_seconds", ""),
		histogramDelta(before, after, "labd_marshal_duration_seconds", ""))

	m := newMetricSet(perLayer)
	lag99, _ := percentile(b.lagMs, 0.99)
	m.set("loadgen.lag_p99_ms", lag99)
	m.set("http.client_ms_mean", mean(client))
	m.set("http.outside_handler_ms_mean", mean(outside))
	m.set("labd.handler_ms_mean", split.handler)
	for name, q := range map[string]struct {
		xs []float64
		q  float64
	}{
		"http.client_ms_p50":          {client, 0.5},
		"http.outside_handler_ms_p50": {outside, 0.5},
		"labd.handler_ms_p50":         {handlerAll, 0.5},
		"labd.handler_ms_p99":         {handlerAll, 0.99},
	} {
		v, err := percentile(q.xs, q.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		m.set(name, v)
	}
	m.set("labd.queue_wait_ms_mean", split.queue)
	m.set("labd.job_ms_mean", split.job)
	m.set("labd.marshal_ms_mean", split.marshal)
	m.set("labd.rest_ms_mean", split.rest)
	m.set("labd.worker_busy_frac", ratio(split.jobSec, float64(sched1.Workers)*b.span.Seconds()))
	m.set("labd.rejected_frac", ratio(float64(sched1.Rejected-sched0.Rejected), float64(b.attempted)))
	m.set("labd.resp_bytes_mean", ratio(bytesSum, float64(len(client))))
	var hits histDelta
	for _, ep := range endpoints {
		labels := `endpoint="` + ep + `",outcome=`
		m.set("labd.miss_ms_mean."+ep, histogramDelta(before, after, "labd_cache_request_duration_seconds", labels+`"miss"`).meanMs())
		h := histogramDelta(before, after, "labd_cache_request_duration_seconds", labels+`"hit"`)
		hits.sumSec += h.sumSec
		hits.count += h.count
	}
	lookups := float64((cache1.Hits + cache1.Misses + cache1.Coalesced) - (cache0.Hits + cache0.Misses + cache0.Coalesced))
	m.set("memo.hit_ratio", ratio(float64(cache1.Hits-cache0.Hits), lookups))
	m.set("memo.coalesced_frac", ratio(float64(cache1.Coalesced-cache0.Coalesced), lookups))
	m.set("memo.hit_ms_mean", hits.meanMs())
	m.set("memo.entries", float64(cache1.Entries))
	m.set("memo.bytes", float64(cache1.Bytes))
	m.set("memo.evictions", float64(cache1.Evictions-cache0.Evictions))
	m.set("go.alloc_bytes_per_op", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), okB))
	m.set("go.gc_cycles_per_op", ratio(float64(mem1.NumGC-mem0.NumGC), okB))
	aP50, _ := percentile(a.latencyMs, 0.5)
	bP50, _ := percentile(b.latencyMs, 0.5)
	m.set("obs.trace_overhead_frac", ratio(bP50, aP50)-1)
	drops, err := writeTrace(s.cfg, tenv.trace)
	if err != nil {
		return nil, err
	}
	m.set("obs.dropped_events", float64(drops))
	m.set("host.steal_frac", steal.frac(time.Time{}, time.Now()))

	correct := s.finish(t)
	metrics, err := m.render(false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(s.cfg.log, "e2ebench: traced phase: %d requests, handler %.4fms = queue %.4f + job %.4f + marshal %.4f + rest %.4f; client %.4fms = handler %.4f + outside %.4f\n",
		b.attempted, split.handler, split.queue, split.job, split.marshal, split.rest, mean(client), mean(handler), mean(outside))
	return &result{Correct: correct && drops == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// joinHandlerTimes pairs each successful request's client time (send to
// last body byte) with the handler time labd's wrapper recorded under the
// same X-Labd-Request-Id. outside = client - handler per request, the time
// spent in net/http, loopback TCP and the client; requests whose ID has no
// handler record are left out of all three.
func joinHandlerTimes(samples []sample, ids []string, clientMs []float64, respBytes []int, byID map[string]time.Duration) (client, handler, outside []float64, bytesSum float64) {
	for i, sm := range samples {
		h, ok := byID[ids[i]]
		if sm.err != nil || !ok {
			continue
		}
		client = append(client, clientMs[i])
		handler = append(handler, ms(h))
		outside = append(outside, clientMs[i]-ms(h))
		bytesSum += float64(respBytes[i])
	}
	return client, handler, outside, bytesSum
}

// stageSplit divides labd's mean handler time per request into the stages
// its /metrics histograms time and the leftover (decode, canonical key,
// memo lookup, response write and hand-offs), all in ms per request. By
// construction queue + job + marshal + rest == handler.
type stageSplit struct {
	handler, queue, job, marshal, rest float64
	jobSec                             float64 // total job time, for the busy fraction
}

// splitStages spreads each stage's summed time over the n requests the
// handler served, so stages of requests that skip them (cache hits never
// queue) weigh in at their true share.
func splitStages(handlerMeanMs, n float64, queue, job, marshal histDelta) stageSplit {
	s := stageSplit{
		handler: handlerMeanMs,
		queue:   queue.perMs(n),
		job:     job.perMs(n),
		marshal: marshal.perMs(n),
		jobSec:  job.sumSec,
	}
	s.rest = s.handler - s.queue - s.job - s.marshal
	return s
}

// writeTrace exports t as a Chrome trace to cfg.traceOut, validates the
// file with obs.ValidateChromeTrace and returns the dropped-event count.
func writeTrace(cfg runConfig, t *obs.Trace) (uint64, error) {
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return 0, fmt.Errorf("trace directory: %w", err)
	}
	var buf bytes.Buffer
	if err := t.WriteChromeTrace(&buf); err != nil {
		return 0, fmt.Errorf("export trace: %w", err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return 0, fmt.Errorf("trace fails validation: %w", err)
	}
	if err := os.WriteFile(cfg.traceOut, buf.Bytes(), 0o644); err != nil {
		return 0, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(cfg.log, "e2ebench: wrote %s: %d events on %d lanes, valid\n", cfg.traceOut, sum.Events, len(sum.Lanes))
	return t.Drops(), nil
}
