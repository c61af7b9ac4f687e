package life

// Differential equivalence for the distributed runner: row-block sharding
// plus halo exchange must be bit-for-bit the per-cell oracle — boards AND
// live-update statistics — for every edge mode, shape, and rank count,
// including the surplus-ranks > rows class (the surplus-thread bug class,
// re-tested here on the message-passing path). Every run goes through
// runDist, which arms the deadlock watchdog, so a protocol hang fails in
// seconds with the blocked ranks named instead of timing the package out.

import (
	"fmt"
	"testing"
	"time"
)

// distTestWatchdog is the deadlock watchdog period the dist tests arm:
// long enough that a rank descheduled on a loaded host is never mistaken
// for a stuck one, short enough that a real hang fails in seconds.
const distTestWatchdog = 2 * time.Second

// runDist runs dr for gens generations with the deadlock watchdog armed
// (unless the test armed its own) and fails the test on any error.
func runDist(t testing.TB, dr *DistRunner, gens int) *RunStats {
	t.Helper()
	if dr.Watchdog == 0 {
		dr.Watchdog = distTestWatchdog
	}
	stats, err := dr.Run(gens)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestDistMatchesReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 5}, {5, 2}, {3, 3}, {16, 16}, {13, 31}, {64, 17}, {8, 130}}
	for _, mode := range allModes {
		for _, ranks := range []int{1, 2, 8, 16} {
			for _, sh := range shapes {
				mode, ranks, rows, cols := mode, ranks, sh[0], sh[1]
				t.Run(fmt.Sprintf("%v/ranks-%d/%dx%d", mode, ranks, rows, cols), func(t *testing.T) {
					g, err := NewGrid(rows, cols, mode)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(42, 0.35)
					const gens = 8
					want, wantUpdates := referenceRun(g, gens)
					stats := runDist(t, &DistRunner{G: g, Ranks: ranks}, gens)
					gridsMatch(t, "distributed vs reference", g, want)
					updatesMatch(t, "distributed vs reference", stats.LiveUpdates, wantUpdates)
					if stats.Rounds != gens {
						t.Errorf("rounds %d, want %d", stats.Rounds, gens)
					}
				})
			}
		}
	}
}

// TestDistMatchesParallelRunner cross-checks the two scale-out engines
// against each other: same board, same generations — shared-memory threads
// and message-passing ranks must land on identical grids and statistics.
func TestDistMatchesParallelRunner(t *testing.T) {
	for _, mode := range allModes {
		for _, workers := range []int{2, 3, 8} {
			mode, workers := mode, workers
			t.Run(fmt.Sprintf("%v/workers-%d", mode, workers), func(t *testing.T) {
				mk := func() *Grid {
					g, err := NewGrid(29, 23, mode)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(7, 0.3)
					return g
				}
				const gens = 6
				pg := mk()
				pr := &ParallelRunner{G: pg, Threads: workers}
				pstats, err := pr.Run(gens)
				if err != nil {
					t.Fatal(err)
				}
				dg := mk()
				dstats := runDist(t, &DistRunner{G: dg, Ranks: workers}, gens)
				gridsMatch(t, "distributed vs parallel", dg, pg)
				if dstats.LiveUpdates != pstats.LiveUpdates {
					t.Errorf("live updates: dist %d, parallel %d", dstats.LiveUpdates, pstats.LiveUpdates)
				}
			})
		}
	}
}

// TestDistSurplusRanks: more ranks than rows must clamp to the row extent
// (the PR-3 surplus-worker regression class) and still be bit-for-bit.
func TestDistSurplusRanks(t *testing.T) {
	for _, mode := range allModes {
		for _, sh := range [][2]int{{1, 9}, {3, 5}, {5, 33}} {
			mode, rows, cols := mode, sh[0], sh[1]
			t.Run(fmt.Sprintf("%v/%dx%d/ranks-33", mode, rows, cols), func(t *testing.T) {
				g, err := NewGrid(rows, cols, mode)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(99, 0.4)
				const gens = 5
				want, wantUpdates := referenceRun(g, gens)
				dr := &DistRunner{G: g, Ranks: 33}
				stats := runDist(t, dr, gens)
				if dr.Ranks != rows {
					t.Errorf("ranks clamped to %d, want %d", dr.Ranks, rows)
				}
				gridsMatch(t, "surplus ranks", g, want)
				updatesMatch(t, "surplus ranks", stats.LiveUpdates, wantUpdates)
			})
		}
	}
}

// TestDistCommStats sanity-checks the exposed traffic counters: a 4-rank
// torus run must move exactly 2 halo rows per rank per generation plus the
// distribution/collection blocks and the stats Allreduce.
func TestDistCommStats(t *testing.T) {
	g, err := NewGrid(16, 10, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(5, 0.3)
	const gens, ranks = 3, 4
	dr := &DistRunner{G: g, Ranks: ranks}
	runDist(t, dr, gens)
	ws := dr.CommStats
	if len(ws.PerRank) != ranks {
		t.Fatalf("stats for %d ranks, want %d", len(ws.PerRank), ranks)
	}
	// A row is one 8-byte word at 10 columns. Halo traffic: ranks * 2 rows
	// * gens. Block traffic: 2*(ranks-1) messages of 4 rows. Allreduce adds
	// messages but only 8-byte payloads.
	const rowBytes = 8
	haloBytes := int64(ranks * 2 * gens * rowBytes)
	blockBytes := int64(2 * (ranks - 1) * 4 * rowBytes)
	wantMin := haloBytes + blockBytes
	if ws.BytesSent < wantMin {
		t.Errorf("world sent %d bytes, want >= %d", ws.BytesSent, wantMin)
	}
	if ws.BytesSent > wantMin+int64(ranks*64) {
		t.Errorf("world sent %d bytes, want close to %d (allreduce overhead only)", ws.BytesSent, wantMin)
	}
	for _, s := range ws.PerRank {
		if s.Collectives != 1 {
			t.Errorf("rank %d collectives %d, want 1 (the stats allreduce)", s.Rank, s.Collectives)
		}
	}
}

// TestDistValidation: bad configurations fail fast.
func TestDistValidation(t *testing.T) {
	g, err := NewGrid(4, 4, Torus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&DistRunner{G: g, Ranks: 0}).Run(1); err == nil {
		t.Error("0 ranks accepted")
	}
}

// TestDistZeroGenerations: n = 0 is the identity, not corruption.
func TestDistZeroGenerations(t *testing.T) {
	g, err := NewGrid(6, 6, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(11, 0.5)
	want := g.Clone()
	stats := runDist(t, &DistRunner{G: g, Ranks: 3}, 0)
	if !g.Equal(want) {
		t.Error("zero-generation run mutated the board")
	}
	if stats.LiveUpdates != 0 || g.Generation != 0 {
		t.Errorf("stats %+v generation %d after zero generations", stats, g.Generation)
	}
}

// TestDistFanInParentsNoDeadlock loops the case that used to deadlock on
// multi-core hosts: 33 ranks over a 37x130 DeadEdges board. Ranks 21-28 are
// 16+ halo hops from their collective parents 5 and 6, so they can finish
// all 8 generations early and fill the parents' inboxes with Allreduce
// contributions while 5 and 6 are still exchanging halos with each other.
// Without msgpass's progress rule the two parents block sending to each
// other; the armed watchdog turns any recurrence into a named cycle.
func TestDistFanInParentsNoDeadlock(t *testing.T) {
	const runs, gens = 300, 8
	g, err := NewGrid(37, 130, DeadEdges)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(42, 0.35)
	want, wantUpdates := referenceRun(g, gens)
	for i := 0; i < runs; i++ {
		b := g.Clone()
		stats, err := (&DistRunner{G: b, Ranks: 33, Watchdog: distTestWatchdog}).Run(gens)
		if err != nil {
			t.Fatalf("run %d: %v", i, err) // a DeadlockError names the cycle
		}
		if !b.Equal(want) || stats.LiveUpdates != wantUpdates {
			t.Fatalf("run %d diverged from the per-cell reference", i)
		}
	}
}
