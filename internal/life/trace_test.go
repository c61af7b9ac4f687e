package life

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cs31/internal/obs"
)

// filterSeq keeps only the "name/ph" entries whose name is in keep —
// runner-level spans are deterministic program order, while the
// message-level events nested inside them (send/recv inside a
// collective) depend on tree topology and are asserted by containment.
func filterSeq(seq []string, keep ...string) []string {
	set := map[string]bool{}
	for _, k := range keep {
		set[k] = true
	}
	var out []string
	for _, e := range seq {
		name := e[:strings.LastIndexByte(e, '/')]
		if set[name] {
			out = append(out, e)
		}
	}
	return out
}

func seqEqual(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: sequence %v, want %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d is %q, want %q (full: %v)", label, i, got[i], want[i], got)
		}
	}
}

// TestParallelRunnerTrace golden-matches the per-worker timeline: each
// worker lane records exactly [generation B/E, barrier-wait B/E] per
// generation, in program order, and the exported JSON passes the
// Chrome trace-event structural validator.
func TestParallelRunnerTrace(t *testing.T) {
	const threads, gens = 3, 4
	g, err := NewGrid(16, 16, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(7, 0.3)

	tr := obs.New()
	waits := obs.NewHistogram(threads)
	pr := &ParallelRunner{G: g, Threads: threads, Trace: tr, BarrierWaits: waits}
	if _, err := pr.Run(gens); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace failed validation: %v", err)
	}

	var want []string
	for i := 0; i < gens; i++ {
		want = append(want, "generation/B", "generation/E", "barrier-wait/B", "barrier-wait/E")
	}
	for i := 0; i < threads; i++ {
		label := fmt.Sprintf("worker %d", i)
		seq, ok := sum.PerLane[label]
		if !ok {
			t.Fatalf("no lane %q in trace (lanes: %v)", label, sum.Lanes)
		}
		seqEqual(t, label, seq, want)
	}
	if len(sum.PerLane) != threads {
		t.Fatalf("trace has %d lanes, want %d", len(sum.PerLane), threads)
	}
	if tr.Drops() != 0 {
		t.Fatalf("dropped %d events on an undersubscribed run", tr.Drops())
	}
	// Every barrier crossing landed in the histogram.
	if got := waits.Snapshot().Count; got != threads*gens {
		t.Fatalf("barrier-wait histogram has %d observations, want %d", got, threads*gens)
	}
}

// TestDistRunnerTrace checks the distributed timeline: one lane per
// rank, the runner's generation/halo-exchange nesting golden-matched
// in program order, and the world's own send/recv/allreduce events
// present on every rank's lane.
func TestDistRunnerTrace(t *testing.T) {
	const ranks, gens = 2, 2
	g, err := NewGrid(12, 12, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(11, 0.3)
	ref, refUpdates := referenceRun(g, gens)

	tr := obs.New()
	stats := runDist(t, &DistRunner{G: g, Ranks: ranks, Trace: tr}, gens)
	if !g.Equal(ref) || stats.LiveUpdates != refUpdates {
		t.Fatalf("traced run diverged from the per-cell reference")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace failed validation: %v", err)
	}

	// Runner-level spans nest deterministically: the halo exchange opens
	// after the sends and the interior rows, inside the generation, and
	// closes before the edge rows run.
	var want []string
	for i := 0; i < gens; i++ {
		want = append(want,
			"generation/B", "halo-exchange/B", "halo-exchange/E", "generation/E")
	}
	for r := 0; r < ranks; r++ {
		label := fmt.Sprintf("rank %d", r)
		seq, ok := sum.PerLane[label]
		if !ok {
			t.Fatalf("no lane %q in trace (lanes: %v)", label, sum.Lanes)
		}
		seqEqual(t, label, filterSeq(seq, "generation", "halo-exchange"), want)

		// The world's message and collective events ride the same lane:
		// halo sends/recvs each generation and the closing allreduce.
		for _, needed := range []string{"send/X", "recv/X", "allreduce/B", "allreduce/E"} {
			found := false
			for _, e := range seq {
				if e == needed {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("lane %q missing %q (events: %v)", label, needed, seq)
			}
		}
	}
	if len(sum.PerLane) != ranks {
		t.Fatalf("trace has %d lanes, want %d", len(sum.PerLane), ranks)
	}
	if tr.Drops() != 0 {
		t.Fatalf("dropped %d events", tr.Drops())
	}
}

// TestDistRunnerTracePacked re-runs the traced distributed protocol on
// multi-word packed rows: same lanes, same runner-level golden.
func TestDistRunnerTracePacked(t *testing.T) {
	const ranks, gens = 2, 3
	g, err := NewGrid(10, 130, Torus) // cols > 64 exercises multi-word rows
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(13, 0.3)

	tr := obs.New()
	runDist(t, &DistRunner{G: g, Ranks: ranks, Trace: tr}, gens)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace failed validation: %v", err)
	}
	var want []string
	for i := 0; i < gens; i++ {
		want = append(want,
			"generation/B", "halo-exchange/B", "halo-exchange/E", "generation/E")
	}
	for r := 0; r < ranks; r++ {
		label := fmt.Sprintf("rank %d", r)
		seqEqual(t, label, filterSeq(sum.PerLane[label], "generation", "halo-exchange"), want)
	}
}
