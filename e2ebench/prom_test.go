package main

import (
	"math"
	"strings"
	"testing"
)

const scrapeBefore = `# HELP labd_queue_wait_seconds Time a job spent in the bounded queue.
# TYPE labd_queue_wait_seconds histogram
labd_queue_wait_seconds_bucket{le="1e-06"} 0
labd_queue_wait_seconds_bucket{le="+Inf"} 10
labd_queue_wait_seconds_sum 0.0125
labd_queue_wait_seconds_count 10
labd_cache_request_duration_seconds_sum{endpoint="life",outcome="miss"} 1.5
labd_cache_request_duration_seconds_count{endpoint="life",outcome="miss"} 100
labd_responses_total{route="GET /v1/homework",status="2xx"} 7
`

const scrapeAfter = `labd_queue_wait_seconds_sum 0.0525
labd_queue_wait_seconds_count 30
labd_cache_request_duration_seconds_sum{endpoint="life",outcome="miss"} 2.5
labd_cache_request_duration_seconds_count{endpoint="life",outcome="miss"} 150
labd_cache_request_duration_seconds_sum{endpoint="asm",outcome="miss"} 0.25
labd_cache_request_duration_seconds_count{endpoint="asm",outcome="miss"} 5 1700000000000
labd_responses_total{route="GET /v1/homework",status="2xx"} 9
`

func mustParse(t *testing.T, s string) promSnapshot {
	t.Helper()
	snap, err := parseProm(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The _sum/_count delta parser: unlabelled and labelled series, a series
// first seen in the second scrape, label values holding spaces, and a
// trailing timestamp.
func TestHistogramDelta(t *testing.T) {
	before, after := mustParse(t, scrapeBefore), mustParse(t, scrapeAfter)

	q := histogramDelta(before, after, "labd_queue_wait_seconds", "")
	if !near(q.sumSec, 0.04) || q.count != 20 {
		t.Errorf("queue wait delta = %+v, want sum 0.04 count 20", q)
	}
	if !near(q.meanMs(), 2) {
		t.Errorf("queue wait mean = %vms, want 2", q.meanMs())
	}
	if !near(q.perMs(40), 1) {
		t.Errorf("queue wait per op = %vms, want 1", q.perMs(40))
	}

	life := histogramDelta(before, after, "labd_cache_request_duration_seconds", `endpoint="life",outcome="miss"`)
	if !near(life.sumSec, 1) || life.count != 50 || !near(life.meanMs(), 20) {
		t.Errorf("life miss delta = %+v", life)
	}
	asm := histogramDelta(before, after, "labd_cache_request_duration_seconds", `endpoint="asm",outcome="miss"`)
	if !near(asm.sumSec, 0.25) || asm.count != 5 {
		t.Errorf("asm miss delta (new series) = %+v", asm)
	}
	none := histogramDelta(before, after, "labd_marshal_duration_seconds", "")
	if none.count != 0 || none.meanMs() != 0 {
		t.Errorf("absent series delta = %+v, want zero", none)
	}
	if got := after[`labd_responses_total{route="GET /v1/homework",status="2xx"}`]; got != 9 {
		t.Errorf("label value with a space: got %v", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	if _, err := parseProm(strings.NewReader("metric_without_value\n")); err == nil {
		t.Error("accepted a line with no value")
	}
	if _, err := parseProm(strings.NewReader("m{a=\"b\"} notanumber\n")); err == nil {
		t.Error("accepted a non-numeric value")
	}
}
