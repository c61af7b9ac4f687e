package labd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"cs31/internal/obs"
)

// TestMetricsEndpoint scrapes GET /metrics after real traffic and checks
// the Prometheus text exposition: content type, the core families, label
// plumbing, and that the scheduler/cache scrape funcs report the same
// numbers as the existing stats snapshots.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	// Traffic: two identical homework requests (miss then hit) and one
	// asm run, so request, cache, and scheduler series all have data.
	for i := 0; i < 2; i++ {
		resp, _ := getURL(t, ts.URL+"/v1/homework?topic=circuits&seed=1&n=2")
		if resp.StatusCode != 200 {
			t.Fatalf("homework: status %d", resp.StatusCode)
		}
	}
	resp, body := getURL(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE labd_request_duration_seconds histogram",
		`labd_request_duration_seconds_bucket{route="GET /v1/homework",le="+Inf"}`,
		`labd_responses_total{route="GET /v1/homework",status="200"} 2`,
		"# TYPE labd_scheduler_submitted_total counter",
		`labd_cache_hits_total{endpoint="homework"} 1`,
		`labd_cache_misses_total{endpoint="homework"} 1`,
		`labd_cache_request_duration_seconds_count{endpoint="homework",outcome="hit"} 1`,
		`labd_cache_request_duration_seconds_count{endpoint="homework",outcome="miss"} 1`,
		"# TYPE labd_queue_wait_seconds histogram",
		"labd_marshal_duration_seconds_count 1",
		"# TYPE labd_workers gauge",
		"labd_workers 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Scrape funcs agree with the stats snapshot taken now.
	st := s.SchedStats()
	if want := fmt.Sprintf("labd_scheduler_completed_total %d", st.Completed); !strings.Contains(text, want) {
		t.Errorf("metrics output missing %q\n%s", want, text)
	}
}

// TestMetricsDisabled checks that DisableMetrics unmounts the endpoint
// and that requests still serve (the obs layer may be entirely absent).
func TestMetricsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DisableMetrics: true})
	resp, _ := getURL(t, ts.URL+"/metrics")
	if resp.StatusCode != 404 {
		t.Fatalf("disabled /metrics: status %d, want 404", resp.StatusCode)
	}
	resp, _ = getURL(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz with metrics disabled: status %d", resp.StatusCode)
	}
	if resp.Header.Get(requestIDHeader) != "" {
		t.Fatalf("request-id header present with obs disabled")
	}
	// /debug/vars still serves the scheduler and cache views, but the
	// per-route keys live in the registry, so they are absent.
	resp, raw := getURL(t, ts.URL+"/debug/vars")
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/vars with metrics disabled: status %d", resp.StatusCode)
	}
	vars := decode[map[string]json.RawMessage](t, raw)
	for _, key := range []string{"labd.scheduler", "labd.queue_hwm", "labd.cache_enabled"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("debug vars missing %q with metrics disabled", key)
		}
	}
	for key := range vars {
		if strings.HasPrefix(key, "labd.endpoint.") || key == "labd.total_requests" {
			t.Errorf("debug vars carry %q with metrics disabled", key)
		}
	}
}

// scrapeMetrics reads GET /metrics into a map from series (name plus
// label set, as exposed) to value.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, body := getURL(t, baseURL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestRequestIDHeader checks every response carries a distinct
// X-Labd-Request-Id — including cache hits, whose bodies never touch a
// handler — so access-log lines join to responses one-to-one.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, _ := getURL(t, ts.URL+"/v1/homework?topic=circuits&seed=9&n=1")
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		id := resp.Header.Get(requestIDHeader)
		if id == "" {
			t.Fatalf("request %d: no %s header", i, requestIDHeader)
		}
		if seen[id] {
			t.Fatalf("request id %q repeated", id)
		}
		seen[id] = true
		if i > 0 && resp.Header.Get(cacheHeader) != "hit" {
			t.Fatalf("request %d: cache %q, want hit", i, resp.Header.Get(cacheHeader))
		}
	}
}

// TestServerTrace runs traffic with a Trace attached and validates the
// exported timeline: an "http" lane of request/marshal X spans and one
// lane per scheduler worker carrying queue-wait/handler spans.
func TestServerTrace(t *testing.T) {
	tr := obs.New()
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Trace: tr})

	for i := 0; i < 3; i++ {
		resp, _ := getURL(t, ts.URL+fmt.Sprintf("/v1/homework?topic=circuits&seed=%d&n=1", i))
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace failed validation: %v", err)
	}
	httpSeq := sum.PerLane["http"]
	if len(httpSeq) == 0 {
		t.Fatalf("no http lane (lanes: %v)", sum.Lanes)
	}
	var requests, marshals int
	for _, e := range httpSeq {
		switch e {
		case "request/X":
			requests++
		case "marshal/X":
			marshals++
		default:
			t.Fatalf("unexpected http-lane event %q", e)
		}
	}
	if requests != 3 || marshals != 3 {
		t.Fatalf("http lane has %d request and %d marshal spans, want 3 and 3", requests, marshals)
	}
	// Worker lanes: every handler ran somewhere, with a queue-wait span
	// preceding it on the same lane.
	var handlers int
	for lane, seq := range sum.PerLane {
		if !strings.HasPrefix(lane, "worker ") {
			continue
		}
		for _, e := range seq {
			if e == "handler/X" {
				handlers++
			}
		}
	}
	if handlers != 3 {
		t.Fatalf("worker lanes carry %d handler spans, want 3", handlers)
	}
}
