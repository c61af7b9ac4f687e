package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// The labd stages plus the leftover add up to the handler total.
func TestSplitStagesAddsUp(t *testing.T) {
	queue := histDelta{sumSec: 0.020, count: 40}
	job := histDelta{sumSec: 0.400, count: 40}
	marshal := histDelta{sumSec: 0.010, count: 40}
	s := splitStages(12.5, 50, queue, job, marshal)
	if !near(s.queue, 0.4) || !near(s.job, 8) || !near(s.marshal, 0.2) {
		t.Errorf("per-request stages = %+v, want queue 0.4 job 8 marshal 0.2", s)
	}
	if got := s.queue + s.job + s.marshal + s.rest; !near(got, s.handler) {
		t.Errorf("stages + rest = %v, handler %v", got, s.handler)
	}
	if !near(s.rest, 3.9) {
		t.Errorf("rest = %v, want 3.9", s.rest)
	}
}

// The handler total plus the outside-handler time equals the client time,
// request by request and therefore in the mean; failed requests and IDs
// without a handler record are left out.
func TestJoinHandlerTimesAddsUp(t *testing.T) {
	samples := []sample{{}, {}, {err: errors.New("status 500")}, {}}
	ids := []string{"a", "b", "c", "zz"}
	clientMs := []float64{1.5, 0.75, 9, 2}
	respBytes := []int{100, 300, 50, 7}
	byID := map[string]time.Duration{
		"a": 500 * time.Microsecond,
		"b": 250 * time.Microsecond,
		"c": time.Millisecond,
	}
	client, handler, outside, bytes := joinHandlerTimes(samples, ids, clientMs, respBytes, byID)
	if len(client) != 2 || bytes != 400 {
		t.Fatalf("joined %d requests, %v bytes; want 2, 400", len(client), bytes)
	}
	for i := range client {
		if !near(handler[i]+outside[i], client[i]) {
			t.Errorf("request %d: handler %v + outside %v != client %v", i, handler[i], outside[i], client[i])
		}
	}
	if !near(mean(handler)+mean(outside), mean(client)) {
		t.Errorf("means: handler %v + outside %v != client %v", mean(handler), mean(outside), mean(client))
	}
	if math.Abs(mean(outside)-0.75) > 1e-9 {
		t.Errorf("outside mean = %v, want 0.75", mean(outside))
	}
}
