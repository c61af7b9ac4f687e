package life

// Differential equivalence for the bit-packed SWAR kernel: every engine —
// serial, parallel tiles, distributed bands — must be bit-for-bit identical
// to the per-cell oracle (stepReference), boards AND live-update
// statistics, for every edge mode, shape (especially ragged widths
// straddling word boundaries), partition, thread count, and rank count.

import (
	"fmt"
	"strings"
	"testing"
)

func TestPackedStepMatchesReference(t *testing.T) {
	shapes := [][2]int{
		{1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 5}, {5, 2}, {3, 3}, {16, 16},
		{13, 31}, {64, 17}, {5, 63}, {5, 64}, {5, 65}, {4, 127}, {3, 130},
	}
	for _, mode := range allModes {
		for _, sh := range shapes {
			mode, rows, cols := mode, sh[0], sh[1]
			t.Run(fmt.Sprintf("%v/%dx%d", mode, rows, cols), func(t *testing.T) {
				g, err := NewGrid(rows, cols, mode)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(42, 0.35)
				const gens = 8
				want, wantUpdates := referenceRun(g, gens)
				updatesMatch(t, "serial kernel", g.RunCounted(gens), wantUpdates)
				gridsMatch(t, "serial kernel", g, want)
			})
		}
	}
}

// TestPackedRaggedWidthsMatchesReference is the ragged-width property
// sweep: widths sitting exactly on, one below, and one above the 64-lane
// word boundary (plus multi-word raggeds) across every edge mode and
// several densities. These widths exercise the last-word mask, the
// slack-lane invariant, and the ghost-column injection at lastLane.
func TestPackedRaggedWidthsMatchesReference(t *testing.T) {
	for _, mode := range allModes {
		for _, cols := range []int{1, 63, 64, 65, 127, 130} {
			for _, density := range []float64{0.1, 0.5, 0.9} {
				mode, cols, density := mode, cols, density
				t.Run(fmt.Sprintf("%v/cols-%d/d%.0f", mode, cols, density*10), func(t *testing.T) {
					g, err := NewGrid(9, cols, mode)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(int64(cols)*31+int64(density*10), density)
					const gens = 6
					want, wantUpdates := referenceRun(g, gens)
					updatesMatch(t, "ragged width", g.RunCounted(gens), wantUpdates)
					gridsMatch(t, "ragged width", g, want)
				})
			}
		}
	}
}

func TestPackedParallelMatchesReference(t *testing.T) {
	for _, mode := range allModes {
		for _, part := range []Partition{ByRows, ByCols} {
			for _, threads := range []int{1, 2, 8, 16, 33} {
				mode, part, threads := mode, part, threads
				t.Run(fmt.Sprintf("%v/%v/threads-%d", mode, part, threads), func(t *testing.T) {
					// 19x130: three words per row, so ByCols word-block tiling
					// has real interior seams; 33 threads exceeds both extents.
					g, err := NewGrid(19, 130, mode)
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

func TestPackedDistMatchesReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {7, 65}, {16, 16}, {37, 130}}
	for _, mode := range allModes {
		for _, ranks := range []int{1, 2, 8, 33} {
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
					gridsMatch(t, "distributed kernel", g, want)
					updatesMatch(t, "distributed kernel", stats.LiveUpdates, wantUpdates)
				})
			}
		}
	}
}

// TestPackedDistHaloBytes pins the wire cost of the packed protocol: a halo
// row at cols=4096 is 64 words = 512 bytes. The world's traffic counters
// must account for exactly halos + block distribution/collection + the
// 8-byte allreduce payloads.
func TestPackedDistHaloBytes(t *testing.T) {
	const rows, cols, ranks, gens = 16, 4096, 4, 3
	g, err := NewGrid(rows, cols, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(5, 0.3)
	dr := &DistRunner{G: g, Ranks: ranks}
	runDist(t, dr, gens)
	const rowBytes = (cols / 64) * 8 // 512: one packed halo row on the wire
	if rowBytes != 512 {
		t.Fatalf("packed halo row = %d bytes at cols=%d, want 512", rowBytes, cols)
	}
	haloBytes := int64(ranks * 2 * gens * rowBytes)
	blockBytes := int64(2 * (ranks - 1) * (rows / ranks) * rowBytes)
	wantMin := haloBytes + blockBytes
	ws := dr.CommStats
	if ws.BytesSent < wantMin {
		t.Errorf("world sent %d bytes, want >= %d", ws.BytesSent, wantMin)
	}
	if ws.BytesSent > wantMin+int64(ranks*64) {
		t.Errorf("world sent %d bytes, want close to %d (allreduce overhead only)", ws.BytesSent, wantMin)
	}
}

// TestPackRoundTrip: the String rendering of a packed board, read back cell
// by cell through Set, rebuilds the same board, and the packed accessors
// (Set, Alive, Population) agree with it — including the last column,
// which sits in a ragged word for most of these widths.
func TestPackRoundTrip(t *testing.T) {
	for _, cols := range []int{1, 63, 64, 65, 130} {
		cols := cols
		t.Run(fmt.Sprintf("cols-%d", cols), func(t *testing.T) {
			g, err := NewGrid(11, cols, Torus)
			if err != nil {
				t.Fatal(err)
			}
			g.Randomize(3, 0.45)
			rendered := g.String()
			back, err := NewGrid(11, cols, Torus)
			if err != nil {
				t.Fatal(err)
			}
			for r, line := range strings.Split(strings.TrimSuffix(rendered, "\n"), "\n") {
				for c, ch := range line {
					if err := back.Set(r, c, ch == '@'); err != nil {
						t.Fatal(err)
					}
				}
			}
			gridsMatch(t, "String/Set round trip", back, g)
			if pop, want := g.Population(), strings.Count(rendered, "@"); pop != want {
				t.Errorf("Population = %d, rendering shows %d live cells", pop, want)
			}
			last := g.Alive(0, cols-1)
			g.Set(0, cols-1, !last)
			if g.Alive(0, cols-1) == last {
				t.Error("Set/Alive lost the last column")
			}
			g.Set(0, cols-1, last)
			gridsMatch(t, "Set restore", g, back)
		})
	}
}

// stepWordTiles advances g one generation as three column tiles, words
// [0,lo), [lo,hi) and [hi,wpr), each a separate stepPackedSlices call over
// every row, and returns the summed change counts.
func stepWordTiles(g *Grid, lo, hi int) int64 {
	var changed int64
	for _, t := range [][2]int{{0, lo}, {lo, hi}, {hi, g.wpr}} {
		changed += stepPackedSlices(g.cells, g.next, g.zeroRow, g.oneRow, g.Rows, g.Cols, g.wpr, g.Mode, 0, g.Rows, t[0], t[1])
	}
	g.swap()
	return changed
}

// TestPackedTilesMatchesReference holds the kernel's tile contract to the
// oracle: for every split of a row's words into three tiles (empty tiles
// included), the stitched board and the summed change counts equal one
// per-cell generation. The widths put a tile edge on, just before and
// just after every word boundary, so each tile's first word takes its west
// context from a neighbor word or the ghost column, and the row's last
// word runs with and without a preceding loop.
func TestPackedTilesMatchesReference(t *testing.T) {
	for _, mode := range allModes {
		for _, cols := range []int{1, 2, 63, 64, 65, 127, 128, 129, 130, 191, 193} {
			mode, cols := mode, cols
			t.Run(fmt.Sprintf("%v/cols-%d", mode, cols), func(t *testing.T) {
				g, err := NewGrid(6, cols, mode)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(int64(cols)+int64(mode)*1000, 0.4)
				want, wantUpdates := referenceRun(g, 1)
				for lo := 0; lo <= g.wpr; lo++ {
					for hi := lo; hi <= g.wpr; hi++ {
						got := g.Clone()
						label := fmt.Sprintf("tiles [0,%d) [%d,%d) [%d,%d)", lo, lo, hi, hi, g.wpr)
						updatesMatch(t, label, stepWordTiles(got, lo, hi), wantUpdates)
						gridsMatch(t, label, got, want)
					}
				}
			})
		}
	}
}

// TestPackedSlackLanesStayZero guards the representation invariant every
// shifted gather relies on: after stepping, the slack lanes of each row's
// final word are zero.
func TestPackedSlackLanesStayZero(t *testing.T) {
	for _, cols := range []int{1, 63, 65, 130} {
		g, err := NewGrid(8, cols, AliveEdges) // alive ghosts press hardest on the mask
		if err != nil {
			t.Fatal(err)
		}
		g.Randomize(9, 0.5)
		g.Run(5)
		mask := lastWordMask(cols)
		for r := 0; r < g.Rows; r++ {
			if w := g.cells[r*g.wpr+g.wpr-1]; w&^mask != 0 {
				t.Fatalf("cols=%d row %d: slack lanes set in %#x (mask %#x)", cols, r, w, mask)
			}
		}
	}
}

// TestPackedClonePreservesRepresentation: a Clone holds the same packed
// words and is independent of the original.
func TestPackedClonePreservesRepresentation(t *testing.T) {
	g, err := NewGrid(9, 70, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(21, 0.4)
	c := g.Clone()
	gridsMatch(t, "clone", c, g)
	c.Step()
	if c.Equal(g) {
		t.Error("stepping the clone mutated the original (shared buffers?)")
	}
}

// TestPackedStepAllocates pins the SWAR kernel's hot loop at zero
// allocations on a multi-word, ragged board.
func TestPackedStepAllocates(t *testing.T) {
	g, err := NewGrid(64, 130, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(3, 0.3)
	if avg := testing.AllocsPerRun(50, func() { g.Step() }); avg != 0 {
		t.Errorf("Step allocates %.1f objects per generation, want 0", avg)
	}
}

// FuzzPackedLife holds the SWAR kernel bit-for-bit to the per-cell oracle —
// boards and stats — across fuzzer-chosen shapes, modes, and densities,
// both as one whole-board tile and split into three fuzzer-chosen word
// tiles.
func FuzzPackedLife(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(0), int64(1), uint8(128), uint8(0), uint8(1))
	f.Add(uint8(1), uint8(65), uint8(1), int64(42), uint8(64), uint8(1), uint8(0))
	f.Add(uint8(9), uint8(127), uint8(2), int64(7), uint8(200), uint8(1), uint8(1))
	f.Add(uint8(16), uint8(64), uint8(3), int64(99), uint8(25), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, rowsB, colsB, modeB uint8, seed int64, densityB, loB, hiB uint8) {
		rows := int(rowsB)%48 + 1
		cols := int(colsB)%140 + 1
		mode := EdgeMode(int(modeB) % 4)
		density := float64(densityB) / 255
		g, err := NewGrid(rows, cols, mode)
		if err != nil {
			t.Fatal(err)
		}
		g.Randomize(seed, density)
		lo := int(loB) % (g.wpr + 1)
		hi := lo + int(hiB)%(g.wpr+1-lo)
		tiled := g.Clone()
		const gens = 3
		want, wantUpdates := referenceRun(g, gens)
		if got := g.RunCounted(gens); got != wantUpdates {
			t.Errorf("%dx%d %v: live updates %d, per-cell reference counted %d", rows, cols, mode, got, wantUpdates)
		}
		if !g.Equal(want) {
			t.Errorf("%dx%d %v: SWAR board diverged from the per-cell reference", rows, cols, mode)
		}
		var tiledUpdates int64
		for i := 0; i < gens; i++ {
			tiledUpdates += stepWordTiles(tiled, lo, hi)
		}
		if tiledUpdates != wantUpdates || !tiled.Equal(want) {
			t.Errorf("%dx%d %v tiles at words %d,%d: %d live updates (reference %d), boards equal: %v",
				rows, cols, mode, lo, hi, tiledUpdates, wantUpdates, tiled.Equal(want))
		}
	})
}
