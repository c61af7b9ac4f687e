package main

import "testing"

// Self time is a span's duration minus what its direct children cover:
// generation [0,100] holds halo-exchange [10,40], which holds two X
// events of 5µs each; a sibling barrier-wait follows on another lane.
func TestSpanStatsSelfTime(t *testing.T) {
	trace := `{"traceEvents":[
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"rank 0"}},
{"name":"generation","ph":"B","ts":0,"pid":1,"tid":1},
{"name":"halo-exchange","ph":"B","ts":10,"pid":1,"tid":1},
{"name":"send","ph":"X","ts":12,"dur":5,"pid":1,"tid":1},
{"name":"recv","ph":"X","ts":20,"dur":5,"pid":1,"tid":1},
{"name":"barrier-wait","ph":"B","ts":30,"pid":1,"tid":2},
{"name":"halo-exchange","ph":"E","ts":40,"pid":1,"tid":1},
{"name":"barrier-wait","ph":"E","ts":35,"pid":1,"tid":2},
{"name":"generation","ph":"E","ts":100,"pid":1,"tid":1}
]}`
	st, err := spanStats([]byte(trace))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, count int, totalUs, selfUs float64) {
		t.Helper()
		s := st[name]
		if s == nil || s.count != count || s.totalNs != totalUs*1e3 || s.selfNs != selfUs*1e3 {
			t.Errorf("%s = %+v, want count %d total %vµs self %vµs", name, s, count, totalUs, selfUs)
		}
	}
	check("generation", 1, 100, 70)
	check("halo-exchange", 1, 30, 20)
	check("send", 1, 5, 5)
	check("barrier-wait", 1, 5, 5)
}

func TestSpanStatsRejectsUnbalanced(t *testing.T) {
	if _, err := spanStats([]byte(`{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}]}`)); err == nil {
		t.Error("accepted a span that never ends")
	}
	if _, err := spanStats([]byte(`{"traceEvents":[{"name":"a","ph":"E","ts":0,"pid":1,"tid":1}]}`)); err == nil {
		t.Error("accepted an end without a begin")
	}
}
