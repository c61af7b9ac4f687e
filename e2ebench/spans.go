package main

import (
	"encoding/json"
	"fmt"
)

// spanTotals aggregates the spans of one name across a trace.
type spanTotals struct {
	count   int
	totalNs float64
	selfNs  float64 // total minus the time direct children cover
}

// spanStats reads a Chrome trace as written by obs.Trace.WriteChromeTrace
// and totals every span by name. B/E pairs nest per lane (tid); an X event
// is a leaf, the child of the innermost B span open on its lane when it
// starts. A span's self time is its duration minus its direct children's.
func spanStats(data []byte) (map[string]*spanTotals, error) {
	var tr struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   float64  `json:"ts"` // µs
			Dur  *float64 `json:"dur"`
			Tid  int      `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	type open struct {
		name    string
		startNs float64
		childNs float64
	}
	stacks := make(map[int][]*open)
	out := make(map[string]*spanTotals)
	add := func(name string, durNs, childNs float64) {
		t := out[name]
		if t == nil {
			t = &spanTotals{}
			out[name] = t
		}
		t.count++
		t.totalNs += durNs
		t.selfNs += durNs - childNs
	}
	for _, ev := range tr.TraceEvents {
		ts := ev.Ts * 1e3
		st := stacks[ev.Tid]
		switch ev.Ph {
		case "B":
			stacks[ev.Tid] = append(st, &open{name: ev.Name, startNs: ts})
		case "E":
			if len(st) == 0 || st[len(st)-1].name != ev.Name {
				return nil, fmt.Errorf("trace: unmatched end of %q on lane %d", ev.Name, ev.Tid)
			}
			top := st[len(st)-1]
			stacks[ev.Tid] = st[:len(st)-1]
			dur := ts - top.startNs
			add(top.name, dur, top.childNs)
			if len(st) > 1 {
				st[len(st)-2].childNs += dur
			}
		case "X":
			if ev.Dur == nil {
				return nil, fmt.Errorf("trace: complete event %q without dur", ev.Name)
			}
			dur := *ev.Dur * 1e3
			add(ev.Name, dur, 0)
			if len(st) > 0 {
				st[len(st)-1].childNs += dur
			}
		}
	}
	for tid, st := range stacks {
		if len(st) > 0 {
			return nil, fmt.Errorf("trace: %q never ends on lane %d", st[len(st)-1].name, tid)
		}
	}
	return out, nil
}
