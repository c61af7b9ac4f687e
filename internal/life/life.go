// Package life implements Conway's Game of Life exactly as CS 31's Labs 6
// and 10 assign it: a serial engine over a 2D grid loaded from the lab's
// file format, and a parallel engine that partitions the grid by rows or
// columns across pthread-style threads, synchronizing each round with a
// barrier and reducing per-thread statistics after join. The parallel
// engine is the course's flagship demonstration of near-linear speedup on
// multicore hardware. Boards are bit-packed and every engine runs one SWAR
// kernel; the Lab 10 rule written out cell by cell is kept as the test
// oracle.
package life

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"sync/atomic"

	"cs31/internal/obs"
	"cs31/internal/pthread"
)

// EdgeMode selects boundary behaviour.
type EdgeMode int

// Boundary modes: the lab uses a torus; dead edges are the simpler variant
// students sometimes build first. Alive edges (every out-of-bounds cell is
// permanently live) and mirror edges (out-of-bounds coordinates clamp to the
// nearest in-bounds row/column, so the board sees its own reflection) round
// out the set the SWAR kernel synthesizes as ghost rows and columns.
const (
	Torus EdgeMode = iota
	DeadEdges
	AliveEdges
	MirrorEdges
)

func (m EdgeMode) String() string {
	switch m {
	case Torus:
		return "torus"
	case DeadEdges:
		return "dead-edges"
	case AliveEdges:
		return "alive-edges"
	case MirrorEdges:
		return "mirror"
	}
	return fmt.Sprintf("EdgeMode(%d)", int(m))
}

// Partition selects how the parallel engine splits the grid (the lab asks
// for both and has students compare).
type Partition int

// Grid partitioning strategies.
const (
	ByRows Partition = iota
	ByCols
)

func (p Partition) String() string {
	if p == ByRows {
		return "rows"
	}
	return "columns"
}

// Grid is a Game of Life board with double buffering, stored bit-packed:
// 64 cells per uint64 word (see packed.go for the layout and the SWAR
// kernel every engine — serial, parallel, distributed — runs).
type Grid struct {
	Rows, Cols int
	Mode       EdgeMode
	Generation int

	// Row r is words cells[r*wpr : (r+1)*wpr]; bit j of word w is the cell
	// in column w*64+j. Slack lanes of a row's last word are always zero.
	cells, next []uint64
	wpr         int      // words per row: (Cols+63)/64
	zeroRow     []uint64 // all-dead row standing in for out-of-bounds rows (DeadEdges)
	oneRow      []uint64 // all-live row standing in for out-of-bounds rows (AliveEdges)
}

// NewGrid allocates an empty grid.
func NewGrid(rows, cols int, mode EdgeMode) (*Grid, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("life: grid %dx%d invalid", rows, cols)
	}
	wpr := wordsPerRow(cols)
	g := &Grid{
		Rows: rows, Cols: cols, Mode: mode,
		cells:   make([]uint64, rows*wpr),
		next:    make([]uint64, rows*wpr),
		wpr:     wpr,
		zeroRow: make([]uint64, wpr),
		oneRow:  make([]uint64, wpr),
	}
	for i := range g.oneRow {
		g.oneRow[i] = ^uint64(0)
	}
	g.oneRow[wpr-1] = lastWordMask(cols)
	return g, nil
}

// SetPacked is a no-op kept so existing callers compile: every grid is
// bit-packed.
//
// Deprecated: grids are always bit-packed; drop the call.
func (g *Grid) SetPacked(bool) {}

// Set makes cell (r, c) alive or dead.
func (g *Grid) Set(r, c int, alive bool) error {
	if r < 0 || r >= g.Rows || c < 0 || c >= g.Cols {
		return fmt.Errorf("life: cell (%d,%d) outside %dx%d grid", r, c, g.Rows, g.Cols)
	}
	g.put(r, c, alive)
	return nil
}

// put is Set for a cell already known to be in bounds.
func (g *Grid) put(r, c int, alive bool) {
	bit := uint64(1) << (uint(c) & 63)
	w := r*g.wpr + c>>6
	if alive {
		g.cells[w] |= bit
	} else {
		g.cells[w] &^= bit
	}
}

// Alive reports whether cell (r, c) is live.
func (g *Grid) Alive(r, c int) bool {
	return g.cells[r*g.wpr+c>>6]>>(uint(c)&63)&1 == 1
}

// Population counts live cells: a popcount per word.
func (g *Grid) Population() int {
	n := 0
	for _, w := range g.cells {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone deep-copies the board. The ghost rows are never written, so the
// clone shares them.
func (g *Grid) Clone() *Grid {
	ng := *g
	ng.cells = append([]uint64(nil), g.cells...)
	ng.next = make([]uint64, len(g.next))
	return &ng
}

// Equal compares live-cell patterns. Slack lanes are always zero, so equal
// boards have equal words.
func (g *Grid) Equal(o *Grid) bool {
	if g.Rows != o.Rows || g.Cols != o.Cols {
		return false
	}
	for i := range g.cells {
		if g.cells[i] != o.cells[i] {
			return false
		}
	}
	return true
}

// Randomize fills the grid from a seeded RNG with the given live density,
// drawing one Float64 per cell in row-major order, so a seed names the same
// board on every engine and in every release.
func (g *Grid) Randomize(seed int64, density float64) {
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			g.put(r, c, rng.Float64() < density)
		}
	}
}

// neighbors counts the live neighbors of (r, c) under the edge mode, one
// cell at a time — the Lab 10 rule written out plainly. It is the oracle
// the SWAR kernel is differential-tested against; the engines never call
// it.
func (g *Grid) neighbors(r, c int) int {
	n := 0
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 {
				continue
			}
			rr, cc := r+dr, c+dc
			oob := rr < 0 || rr >= g.Rows || cc < 0 || cc >= g.Cols
			switch g.Mode {
			case Torus:
				rr = (rr + g.Rows) % g.Rows
				cc = (cc + g.Cols) % g.Cols
			case DeadEdges:
				if oob {
					continue
				}
			case AliveEdges:
				// Any out-of-bounds coordinate — row, column, or both —
				// makes the neighbor a permanently live ghost cell.
				if oob {
					n++
					continue
				}
			case MirrorEdges:
				// Row and column clamp independently to the nearest
				// in-bounds index: the board sees its own reflection.
				rr = clamp(rr, g.Rows)
				cc = clamp(cc, g.Cols)
			}
			if g.Alive(rr, cc) {
				n++
			}
		}
	}
	return n
}

// clamp maps an out-of-bounds index one step past either end back onto the
// nearest in-bounds index (mirror reflection across the edge).
func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// stepReference advances one generation cell by cell through neighbors,
// reading the board through Alive and writing the scratch board through
// put, and returns how many cells changed state. It is the oracle for every
// engine's boards and LiveUpdates.
func (g *Grid) stepReference() int64 {
	scratch := &Grid{Rows: g.Rows, Cols: g.Cols, wpr: g.wpr, cells: g.next}
	var changed int64
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			n := g.neighbors(r, c)
			alive := g.Alive(r, c)
			next := n == 3 || (n == 2 && alive)
			scratch.put(r, c, next)
			if next != alive {
				changed++
			}
		}
	}
	g.swap()
	return changed
}

// swap promotes the scratch buffer to current.
func (g *Grid) swap() {
	g.cells, g.next = g.next, g.cells
	g.Generation++
}

// step advances one generation through the SWAR kernel and returns how
// many cells changed state.
func (g *Grid) step() int64 {
	changed := stepPackedSlices(g.cells, g.next, g.zeroRow, g.oneRow, g.Rows, g.Cols, g.wpr, g.Mode, 0, g.Rows, 0, g.wpr)
	g.swap()
	return changed
}

// Step advances one generation serially (Lab 6), through the same kernel
// the parallel tiles run, so measured speedups are against a fast serial
// baseline.
func (g *Grid) Step() { g.step() }

// Run advances n generations serially.
func (g *Grid) Run(n int) {
	for i := 0; i < n; i++ {
		g.step()
	}
}

// RunCounted advances n generations serially and reports how many cells
// changed state in total — the serial twin of the parallel runner's
// LiveUpdates statistic, which the sweep engine's differential tests
// compare per-shard reductions against.
func (g *Grid) RunCounted(n int) int64 {
	var changed int64
	for i := 0; i < n; i++ {
		changed += g.step()
	}
	return changed
}

// Bools returns the grid as [][]bool for the visualizer.
func (g *Grid) Bools() [][]bool {
	out := make([][]bool, g.Rows)
	for r := range out {
		out[r] = make([]bool, g.Cols)
		for c := range out[r] {
			out[r][c] = g.Alive(r, c)
		}
	}
	return out
}

// String renders the grid in the lab's console format.
func (g *Grid) String() string {
	var sb strings.Builder
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if g.Alive(r, c) {
				sb.WriteByte('@')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Config is the lab's input file contents.
type Config struct {
	Rows, Cols, Iters int
	Live              [][2]int
}

// ParseConfig reads the Lab 6 file format: three header integers (rows,
// cols, iterations), then "row col" pairs of initially live cells.
func ParseConfig(r io.Reader) (*Config, error) {
	var cfg Config
	if _, err := fmt.Fscan(r, &cfg.Rows, &cfg.Cols, &cfg.Iters); err != nil {
		return nil, fmt.Errorf("life: bad config header: %w", err)
	}
	if cfg.Rows < 1 || cfg.Cols < 1 || cfg.Iters < 0 {
		return nil, fmt.Errorf("life: invalid config %dx%d iters %d", cfg.Rows, cfg.Cols, cfg.Iters)
	}
	for {
		var rr, cc int
		_, err := fmt.Fscan(r, &rr, &cc)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("life: bad live-cell pair: %w", err)
		}
		if rr < 0 || rr >= cfg.Rows || cc < 0 || cc >= cfg.Cols {
			return nil, fmt.Errorf("life: live cell (%d,%d) outside grid", rr, cc)
		}
		cfg.Live = append(cfg.Live, [2]int{rr, cc})
	}
	return &cfg, nil
}

// BuildGrid makes a grid from a parsed config.
func (cfg *Config) BuildGrid(mode EdgeMode) (*Grid, error) {
	g, err := NewGrid(cfg.Rows, cfg.Cols, mode)
	if err != nil {
		return nil, err
	}
	for _, rc := range cfg.Live {
		if err := g.Set(rc[0], rc[1], true); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Oscillator returns the classic blinker config used in the lab handout.
func Oscillator() *Config {
	return &Config{
		Rows: 5, Cols: 5, Iters: 4,
		Live: [][2]int{{2, 1}, {2, 2}, {2, 3}},
	}
}

// RunStats is the per-run statistics the parallel workers produce: each
// thread accumulates its tile's counts privately and the runner reduces
// them after join.
type RunStats struct {
	LiveUpdates int64 // cells that changed state, summed across threads
	Rounds      int
}

// statShardStride spaces per-thread LiveUpdates accumulators a cache line
// apart (8 int64s = 64 bytes, matching pthread.Sharded), so the one store
// each worker issues after its loop never false-shares with a neighbor.
const statShardStride = 8

// ParallelRunner advances a grid with worker threads (Lab 10).
type ParallelRunner struct {
	G         *Grid
	Threads   int
	Partition Partition

	// OnRound, if non-nil, is called by the round's serial thread with the
	// freshly computed generation (used for visualization). Successive
	// callbacks are ordered (round r's callback happens before round
	// r+1's), but other workers may already be computing the next
	// generation while a callback runs; the grid state the callback
	// observes is stable until it returns.
	OnRound func(g *Grid)

	// Trace, if non-nil, records one timeline lane per worker: a
	// "generation" span around each kernel step and a "barrier-wait" span
	// around each crossing. Lanes and name handles are registered before
	// the workers spawn, so the per-round recording path allocates
	// nothing; a nil Trace costs a few inlined nil checks per round.
	Trace *obs.Trace

	// BarrierWaits, if non-nil, receives the duration of every barrier
	// crossing (one observation per worker per generation), sharded by
	// party id.
	BarrierWaits *obs.Histogram
}

// Run advances n generations in parallel: each thread owns a block of rows
// (or of 64-column words) and runs the same SWAR kernel as the serial
// engine over it. One combining-tree barrier crossing separates
// generations: the parity swap is thread-local (each worker alternates
// src/dst every round), so no shared state needs a second protected phase
// — the round's serial thread publishes the new generation on the Grid
// while the others proceed. LiveUpdates accumulate in a register per
// worker and land in a cache-line-padded shard once after the loop,
// reduced after join; the per-generation hot path takes no lock and
// allocates nothing.
func (pr *ParallelRunner) Run(n int) (*RunStats, error) {
	return pr.RunCtx(context.Background(), n)
}

// noStop is stopRound's armed-but-not-triggered sentinel.
const noStop = math.MaxInt64

// RunCtx is Run under a context. Cancellation must be *uniform*: every
// worker has to leave the round loop at the same round boundary, or the
// leavers strand the stayers at the next barrier forever. The round's
// serial thread is the only cancellation observer: on a canceled context it
// arms stopRound = r+2 (stop before round r+2) after publishing round r.
// Every worker compares its finished round against stopRound at the bottom
// of each iteration; the barrier's own synchronization guarantees that by
// the time any worker finishes round r+1 it sees the arm (the serial thread
// stored it before arriving at barrier r+1), so all workers break together
// after round r+1. Cancellation therefore costs at most one extra
// generation of latency, the grid is left on a whole-generation boundary,
// and the error wraps ctx.Err().
func (pr *ParallelRunner) RunCtx(ctx context.Context, n int) (*RunStats, error) {
	if pr.Threads < 1 {
		return nil, fmt.Errorf("life: need at least 1 thread")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("life: parallel run not started: %w", err)
	}
	g := pr.G
	// A ByCols tile is a block of 64-cell words, not bit columns: word w
	// needs only read-shared access to words w-1 and w+1 of the source
	// parity buffer, so word tiles compose with the SWAR kernel with no
	// intra-word edge handling.
	extent := g.Rows
	if pr.Partition == ByCols {
		extent = g.wpr
	}
	// Clamp to the partition extent (not Rows*Cols): surplus threads would
	// own empty tiles, and spawning them only adds barrier traffic. This
	// also keeps Run consistent with Owner's clamping.
	if pr.Threads > extent {
		pr.Threads = extent
	}
	barrier, err := pthread.NewBarrier(pr.Threads)
	if err != nil {
		return nil, err
	}
	if pr.BarrierWaits != nil {
		barrier.ObserveWaits(pr.BarrierWaits)
	}
	// Pre-register trace lanes and name handles outside the hot path:
	// workers record through fixed handles and never touch a string.
	var lanes []*obs.Lane
	var nGen, nBarrier obs.Name
	if pr.Trace != nil {
		nGen = pr.Trace.Name("generation")
		nBarrier = pr.Trace.Name("barrier-wait")
		lanes = make([]*obs.Lane, pr.Threads)
		for i := range lanes {
			lanes[i] = pr.Trace.Lane(fmt.Sprintf("worker %d", i))
		}
	}
	stats := &RunStats{}
	shards := make([]int64, pr.Threads*statShardStride)
	rows, cols, wpr, mode := g.Rows, g.Cols, g.wpr, g.Mode
	zero, one := g.zeroRow, g.oneRow
	src0, dst0 := g.cells, g.next
	var stopRound atomic.Int64
	stopRound.Store(noStop)
	ctxDone := ctx.Done()

	worker := func(id int) interface{} {
		lo, hi := pthread.BlockRange(id, pr.Threads, extent)
		loRow, hiRow, loW, hiW := lo, hi, 0, wpr
		if pr.Partition == ByCols {
			loRow, hiRow, loW, hiW = 0, rows, lo, hi
		}
		src, dst := src0, dst0
		var lane *obs.Lane
		if lanes != nil {
			lane = lanes[id]
		}
		var updates int64
		for round := 0; round < n; round++ {
			lane.Begin(nGen)
			updates += stepPackedSlices(src, dst, zero, one, rows, cols, wpr, mode, loRow, hiRow, loW, hiW)
			lane.End(nGen)
			// One barrier per generation: nobody may read dst as a source
			// until every tile of it is written. The serial thread
			// publishes the round on the Grid; that is safe against round
			// r+2 overwriting dst because round r+2 cannot start before
			// barrier r+1 completes, which needs the serial thread's
			// arrival after its callback returns.
			lane.Begin(nBarrier)
			serial := barrier.WaitParty(id)
			lane.End(nBarrier)
			if serial {
				g.cells, g.next = dst, src
				g.Generation++
				stats.Rounds++
				if pr.OnRound != nil {
					pr.OnRound(g)
				}
				// Arm the uniform stop. Round serial threads are totally
				// ordered, so the CAS fires at most once; workers racing
				// through this round's bottom check may miss the arm, but
				// the barrier they cross next publishes it to everyone.
				if ctxDone != nil && ctx.Err() != nil {
					stopRound.CompareAndSwap(noStop, int64(round)+2)
				}
			}
			src, dst = dst, src
			if int64(round)+1 >= stopRound.Load() {
				break
			}
		}
		shards[id*statShardStride] = updates
		return nil
	}

	if err := runWorkers(pr.Threads, worker); err != nil {
		return nil, err
	}
	for id := 0; id < pr.Threads; id++ {
		stats.LiveUpdates += shards[id*statShardStride]
	}
	if stopRound.Load() != noStop {
		return nil, fmt.Errorf("life: parallel run canceled after %d of %d rounds: %w", stats.Rounds, n, ctx.Err())
	}
	return stats, nil
}

// runWorkers spawns one pthread per id, joins them all, and surfaces the
// first worker error.
func runWorkers(threads int, worker func(id int) interface{}) error {
	ts := make([]*pthread.Thread, threads)
	for id := 0; id < threads; id++ {
		id := id
		ts[id] = pthread.Create(func() interface{} { return worker(id) })
	}
	for _, t := range ts {
		v, err := t.Join()
		if err != nil {
			return err
		}
		if e, ok := v.(error); ok && e != nil {
			return e
		}
	}
	return nil
}

// Owner reports which thread owns cell (r, c) under the runner's
// partitioning — used by paravis to color regions.
func (pr *ParallelRunner) Owner(r, c int) int {
	extent := pr.G.Rows
	pos := r
	if pr.Partition == ByCols {
		// ByCols tiles are word blocks: ownership follows the 64-cell word
		// the column lives in.
		extent = pr.G.wpr
		pos = c >> 6
	}
	threads := pr.Threads
	if threads > extent {
		threads = extent
	}
	for id := 0; id < threads; id++ {
		lo, hi := pthread.BlockRange(id, threads, extent)
		if pos >= lo && pos < hi {
			return id
		}
	}
	return 0
}
