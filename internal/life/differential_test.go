package life

// Differential equivalence: the SWAR kernel (Step / ParallelRunner tiles)
// must be bit-for-bit identical to the per-cell oracle (stepReference) —
// boards AND live-update counts — for every edge mode, partition, grid
// shape — including degenerate 1xN / Nx1 / 2x2 grids where torus wrapping
// double-counts neighbors — and over many generations.

import (
	"fmt"
	"testing"
)

// allModes enumerates every edge mode; the differential matrices sweep all
// of them so ghost synthesis is pinned for each boundary behavior.
var allModes = []EdgeMode{Torus, DeadEdges, AliveEdges, MirrorEdges}

// referenceRun advances a clone of g through n generations of the per-cell
// oracle and returns the resulting grid plus how many cells changed state —
// the board and LiveUpdates every engine is held to.
func referenceRun(g *Grid, n int) (*Grid, int64) {
	ref := g.Clone()
	var changed int64
	for i := 0; i < n; i++ {
		changed += ref.stepReference()
	}
	return ref, changed
}

// updatesMatch reports a LiveUpdates count that disagrees with the oracle's.
func updatesMatch(t *testing.T, label string, got, want int64) {
	t.Helper()
	if got != want {
		t.Errorf("%s: live updates %d, per-cell reference counted %d", label, got, want)
	}
}

func gridsMatch(t *testing.T, label string, got, want *Grid) {
	t.Helper()
	if !got.Equal(want) {
		t.Errorf("%s: grids diverged\ngot:\n%s\nwant:\n%s", label, got, want)
	}
	if got.Generation != want.Generation {
		t.Errorf("%s: generation %d, want %d", label, got.Generation, want.Generation)
	}
}

func TestStepMatchesReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 5}, {5, 2}, {3, 3}, {16, 16}, {13, 31}, {64, 17}}
	for _, mode := range allModes {
		for _, sh := range shapes {
			rows, cols := sh[0], sh[1]
			t.Run(fmt.Sprintf("%v/%dx%d", mode, rows, cols), func(t *testing.T) {
				g, err := NewGrid(rows, cols, mode)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(42, 0.35)
				want, wantUpdates := referenceRun(g, 8)
				updatesMatch(t, "serial kernel", g.RunCounted(8), wantUpdates)
				gridsMatch(t, "serial kernel", g, want)
			})
		}
	}
}

func TestParallelMatchesReference(t *testing.T) {
	for _, mode := range allModes {
		for _, part := range []Partition{ByRows, ByCols} {
			for _, threads := range []int{1, 2, 3, 7} {
				mode, part, threads := mode, part, threads
				t.Run(fmt.Sprintf("%v/%v/threads-%d", mode, part, threads), func(t *testing.T) {
					g, err := NewGrid(19, 23, mode)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(7, 0.3)
					const gens = 6
					want, wantUpdates := referenceRun(g, gens)
					pr := &ParallelRunner{G: g, Threads: threads, Partition: part}
					stats, err := pr.Run(gens)
					if err != nil {
						t.Fatal(err)
					}
					gridsMatch(t, "parallel kernel", g, want)
					updatesMatch(t, "parallel kernel", stats.LiveUpdates, wantUpdates)
					if stats.Rounds != gens {
						t.Errorf("rounds = %d, want %d", stats.Rounds, gens)
					}
				})
			}
		}
	}
}

// TestParallelStatsMatchSerialKernel pins the LiveUpdates count the workers
// report to the count the serial kernel and the per-cell oracle compute.
func TestParallelStatsMatchSerialKernel(t *testing.T) {
	g, err := NewGrid(24, 24, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(99, 0.4)
	const gens = 5
	_, wantUpdates := referenceRun(g, gens)
	serial := g.Clone()
	updatesMatch(t, "serial kernel", serial.RunCounted(gens), wantUpdates)
	pr := &ParallelRunner{G: g, Threads: 4}
	stats, err := pr.Run(gens)
	if err != nil {
		t.Fatal(err)
	}
	updatesMatch(t, "parallel runner", stats.LiveUpdates, wantUpdates)
}

// TestParallelSurplusThreads runs with more threads than the partition
// extent (labd accepts up to 64 threads on arbitrarily small grids).
// Surplus workers would own empty tiles; an empty tile that still wrote its
// edge recomputed cells the owning tile also wrote, racing with it (caught
// under -race) and double-counting LiveUpdates. The grid is 9x5 so
// Threads=12 exceeds both extents.
func TestParallelSurplusThreads(t *testing.T) {
	for _, mode := range allModes {
		for _, part := range []Partition{ByRows, ByCols} {
			mode, part := mode, part
			t.Run(fmt.Sprintf("%v/%v", mode, part), func(t *testing.T) {
				g, err := NewGrid(9, 5, mode)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(17, 0.35)
				const gens = 6
				want, wantUpdates := referenceRun(g, gens)
				pr := &ParallelRunner{G: g, Threads: 12, Partition: part}
				stats, err := pr.Run(gens)
				if err != nil {
					t.Fatal(err)
				}
				gridsMatch(t, "surplus threads", g, want)
				updatesMatch(t, "surplus threads", stats.LiveUpdates, wantUpdates)
			})
		}
	}
}

// TestStepBlockEmptyRange pins the empty-tile no-op: a zero-width or
// zero-height block must report no changes and leave the scratch buffer
// untouched, even when its bounds sit on the grid edge.
func TestStepBlockEmptyRange(t *testing.T) {
	g, err := NewGrid(6, 130, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(5, 0.5)
	before := append([]uint64(nil), g.next...)
	for _, blk := range [][4]int{
		{0, g.Rows, g.wpr, g.wpr},  // surplus ByCols tile at the right edge
		{g.Rows, g.Rows, 0, g.wpr}, // surplus ByRows tile at the bottom edge
		{0, g.Rows, 1, 1},
		{2, 2, 0, g.wpr},
	} {
		ch := stepPackedSlices(g.cells, g.next, g.zeroRow, g.oneRow, g.Rows, g.Cols, g.wpr, g.Mode, blk[0], blk[1], blk[2], blk[3])
		if ch != 0 {
			t.Errorf("stepPackedSlices(%v) reported %d changes, want 0", blk, ch)
		}
	}
	for i := range before {
		if g.next[i] != before[i] {
			t.Fatalf("empty block wrote to scratch buffer at word %d", i)
		}
	}
}

// TestRunnerMatchesReferenceRunner holds ParallelRunner to the per-cell
// oracle on a small board: same final grid, same generation count, same
// LiveUpdates reduction, for every edge mode × partition × thread count
// (including surplus threads, which clamp to the partition extent).
func TestRunnerMatchesReferenceRunner(t *testing.T) {
	for _, mode := range allModes {
		for _, part := range []Partition{ByRows, ByCols} {
			for _, threads := range []int{1, 2, 3, 5, 12} {
				mode, part, threads := mode, part, threads
				t.Run(fmt.Sprintf("%v/%v/threads-%d", mode, part, threads), func(t *testing.T) {
					g, err := NewGrid(11, 7, mode)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(23, 0.35)
					const gens = 6
					want, wantUpdates := referenceRun(g, gens)
					pr := &ParallelRunner{G: g, Threads: threads, Partition: part}
					stats, err := pr.Run(gens)
					if err != nil {
						t.Fatal(err)
					}
					gridsMatch(t, "runner vs reference", g, want)
					updatesMatch(t, "runner vs reference", stats.LiveUpdates, wantUpdates)
					if stats.Rounds != gens {
						t.Errorf("Rounds = %d, want %d", stats.Rounds, gens)
					}
				})
			}
		}
	}
}

// TestRunCountedMatchesParallelStats pins Grid.RunCounted — the serial twin
// of LiveUpdates — to the parallel reduction.
func TestRunCountedMatchesParallelStats(t *testing.T) {
	g, err := NewGrid(17, 13, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(71, 0.4)
	serial := g.Clone()
	const gens = 7
	pr := &ParallelRunner{G: g, Threads: 5}
	stats, err := pr.Run(gens)
	if err != nil {
		t.Fatal(err)
	}
	if counted := serial.RunCounted(gens); counted != stats.LiveUpdates {
		t.Errorf("RunCounted = %d, parallel LiveUpdates = %d", counted, stats.LiveUpdates)
	}
	gridsMatch(t, "RunCounted grid", serial, g)
}

// TestParallelRunAllocations pins the per-generation allocation count of
// the sharded runner's hot loop at zero: the cost of a Run is a fixed
// setup (threads, barrier, shards) regardless of how many generations it
// advances, so the difference between a long run and a short run over the
// same fixed-size grid must be allocation-free.
func TestParallelRunAllocations(t *testing.T) {
	run := func(gens int) float64 {
		return testing.AllocsPerRun(10, func() {
			g, err := NewGrid(32, 32, Torus)
			if err != nil {
				t.Fatal(err)
			}
			g.Randomize(9, 0.3)
			pr := &ParallelRunner{G: g, Threads: 4}
			if _, err := pr.Run(gens); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(1), run(41)
	if perGen := (long - short) / 40; perGen > 0.05 {
		t.Errorf("parallel loop allocates %.2f objects per generation (run(1)=%.1f, run(41)=%.1f), want 0",
			perGen, short, long)
	}
}

// TestStepAllocates pins the zero-allocation property of the serial kernel.
func TestStepAllocates(t *testing.T) {
	g, err := NewGrid(64, 64, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(3, 0.3)
	avg := testing.AllocsPerRun(50, func() { g.Step() })
	if avg != 0 {
		t.Errorf("Step allocates %.1f objects per generation, want 0", avg)
	}
}
