package life

import (
	"context"
	"fmt"
	"time"

	"cs31/internal/msgpass"
	"cs31/internal/obs"
	"cs31/internal/pthread"
)

// Message tags of the distributed runner's little protocol. tagUp/tagDown
// name the direction the halo row travels, so the two rows a rank exchanges
// with one neighbor (P = 2 under torus wrapping makes the up and down
// neighbor the same rank) never cross-match.
const (
	distTagBlock = 0 // initial row-block distribution and final gather
	distTagUp    = 1 // a rank's top owned row, sent to the neighbor above
	distTagDown  = 2 // a rank's bottom owned row, sent to the neighbor below
)

// distEagerCapacity is the inbox depth DistRunner worlds use: the halo
// exchange posts both neighbor sends before receiving (the symmetric
// pattern that deadlocks under rendezvous), so sends must buffer. Two
// in-flight halos plus distribution traffic fit in 4; when early
// Allreduce contributions from ranks that finished ahead overflow an
// inbox, msgpass's progress rule (a parked sender keeps draining its own
// inbox) keeps the exchange moving, so the depth bounds memory, not
// correctness.
const distEagerCapacity = 4

// DistRunner advances a grid with message-passing ranks — the distributed-
// memory sibling of ParallelRunner. The grid is row-block sharded across a
// msgpass world: each rank owns a contiguous band of rows in a private
// local buffer, exchanges one-row halos with its neighbors by Send/Recv
// each generation, and the per-rank live-update counts meet in an
// Allreduce. No rank ever touches another rank's memory; every byte that
// crosses a shard boundary is a message, and the world's counters price
// exactly that traffic. Row blocks and halo rows travel as packed []uint64
// words, so a halo row costs ceil(cols/64)*8 bytes on the wire (512 bytes
// at cols=4096), and each band advances through the SWAR kernel.
type DistRunner struct {
	G     *Grid
	Ranks int

	// Chaos, when non-nil, arms seeded fault injection on the world: bounded
	// delivery delays and rank stalls that perturb timing without touching
	// message order, so the halo exchange can be stress-tested against
	// stragglers while staying bit-for-bit equal to the serial engine.
	Chaos *msgpass.Chaos

	// Watchdog, when positive, arms the deadlock detector: a protocol bug
	// (or a chaos schedule that exposes one) surfaces as a structured
	// DeadlockError naming the blocked ranks instead of a hang.
	Watchdog time.Duration

	// Trace, if non-nil, records one timeline lane per rank: "generation"
	// and "halo-exchange" spans from the runner, plus the world's own
	// send/recv/collective events (the world is built with
	// msgpass.WithTrace), so a run renders halo traffic, stragglers, and
	// the closing allreduce in chrome://tracing or Perfetto. The
	// "halo-exchange" span covers the halo receives and fills, the part
	// of the exchange that can wait, not the sends.
	Trace *obs.Trace

	// CommStats holds the world's traffic counters after Run returns.
	CommStats msgpass.WorldStats
}

// Run advances n generations across the runner's ranks and returns the
// same statistics as ParallelRunner.Run, bit-for-bit equal to the serial
// engine's RunCounted on the same board.
//
// Protocol per rank: receive your row block from rank 0 (tagBlock), then
// each generation send your top/bottom owned rows to your neighbors
// (tagUp/tagDown), advance your interior rows with the shared SWAR kernel
// while those are in flight, receive the neighbors' rows into your halo
// rows, and then advance your two edge rows (MPI's Isend, compute the
// interior, Wait idiom); after the last generation, Allreduce the
// live-update counts and send your block back to rank 0. Neighbor
// relationships wrap into a ring under Torus and fall off the ends
// otherwise: a DeadEdges boundary halo stays all-dead, an AliveEdges one is
// pinned all-live, and a MirrorEdges one is refreshed each generation with
// the rank's own edge row (the reflection). A rank that is its own neighbor
// (a single-rank torus) copies its edge rows locally instead of messaging
// itself.
func (dr *DistRunner) Run(n int) (*RunStats, error) {
	return dr.RunCtx(context.Background(), n)
}

// distNeighbors returns the ranks above and below a rank (-1 marks a
// non-torus boundary whose halo is synthesized locally).
func distNeighbors(rank, ranks int, mode EdgeMode) (up, down int) {
	up, down = rank-1, rank+1
	if rank == 0 {
		up = -1
		if mode == Torus {
			up = ranks - 1
		}
	}
	if rank == ranks-1 {
		down = -1
		if mode == Torus {
			down = 0
		}
	}
	return up, down
}

// traceHandles resolves a rank's lane and the runner's span names —
// nil lane and zero handles when tracing is off, so the per-generation
// recording calls are no-ops.
func (dr *DistRunner) traceHandles(c *msgpass.Comm) (lane *obs.Lane, nGen, nHalo obs.Name) {
	lane = c.TraceLane()
	if lane != nil {
		nGen = dr.Trace.Name("generation")
		nHalo = dr.Trace.Name("halo-exchange")
	}
	return lane, nGen, nHalo
}

// RunCtx is Run under a context: when ctx is canceled mid-run the world
// aborts, every rank (including ones parked in halo receives or chaos
// sleeps) unwinds promptly, all rank goroutines are joined, and the error
// wraps ctx.Err(). The grid is left untouched on any error — generations
// only commit after a clean collection.
func (dr *DistRunner) RunCtx(ctx context.Context, n int) (*RunStats, error) {
	if dr.Ranks < 1 {
		return nil, fmt.Errorf("life: need at least 1 rank")
	}
	g := dr.G
	// Clamp to the row extent, the same surplus-worker discipline as
	// ParallelRunner: ranks beyond Rows would own empty bands and only add
	// exchange traffic.
	if dr.Ranks > g.Rows {
		dr.Ranks = g.Rows
	}
	opts := []msgpass.Option{msgpass.WithCapacity(distEagerCapacity)}
	if dr.Chaos != nil {
		opts = append(opts, msgpass.WithChaos(*dr.Chaos))
	}
	if dr.Trace != nil {
		opts = append(opts, msgpass.WithTrace(dr.Trace))
	}
	if dr.Watchdog > 0 {
		opts = append(opts, msgpass.WithWatchdog(dr.Watchdog))
	}
	world, err := msgpass.NewWorld(dr.Ranks, opts...)
	if err != nil {
		return nil, err
	}

	stats := &RunStats{}
	err = world.RunCtx(ctx, func(c *msgpass.Comm) error {
		return dr.rank(c, n, stats)
	})
	// Record traffic counters even on a failed run: a canceled or deadlocked
	// run's partial traffic is exactly what fault diagnosis wants to see.
	dr.CommStats = world.Stats()
	if err != nil {
		return nil, err
	}
	// Promote the assembled generation. One swap suffices: the Grid's
	// buffers were never touched mid-run, only the scratch side at
	// collection time.
	g.cells, g.next = g.next, g.cells
	g.Generation += n
	return stats, nil
}

// rank is one rank's body of the protocol RunCtx documents.
func (dr *DistRunner) rank(c *msgpass.Comm, n int, stats *RunStats) error {
	g := dr.G
	ranks := dr.Ranks
	rows, cols, mode, wpr := g.Rows, g.Cols, g.Mode, g.wpr
	lane, nGen, nHalo := dr.traceHandles(c)
	rank := c.Rank()
	lo, hi := pthread.BlockRange(rank, ranks, rows)
	band := hi - lo

	// Local shard: band rows plus one halo row above and below. Halo rows
	// are rows 0 and band+1; owned rows are 1..band. Both parity buffers
	// start zeroed, which is exactly the all-dead halo DeadEdges boundary
	// ranks need forever (the kernel never writes halo rows).
	src := make([]uint64, (band+2)*wpr)
	dst := make([]uint64, (band+2)*wpr)

	// Distribute: rank 0 owns the grid and mails every other rank its band;
	// its own band is a local copy.
	if rank == 0 {
		for r := 1; r < ranks; r++ {
			rlo, rhi := pthread.BlockRange(r, ranks, rows)
			block := append([]uint64(nil), g.cells[rlo*wpr:rhi*wpr]...)
			if err := msgpass.Send(c, r, distTagBlock, block); err != nil {
				return err
			}
		}
		copy(src[wpr:(band+1)*wpr], g.cells[lo*wpr:hi*wpr])
	} else {
		block, err := msgpass.Recv[[]uint64](c, 0, distTagBlock)
		if err != nil {
			return err
		}
		if len(block) != band*wpr {
			return fmt.Errorf("rank %d: block of %d words, want %d", rank, len(block), band*wpr)
		}
		copy(src[wpr:(band+1)*wpr], block)
	}

	up, down := distNeighbors(rank, ranks, mode)
	// An AliveEdges boundary halo is pinned all-live in both parity buffers
	// once: the kernel never writes halo rows and no message targets them.
	if mode == AliveEdges {
		for _, buf := range [][]uint64{src, dst} {
			if up < 0 {
				copy(buf[:wpr], g.oneRow)
			}
			if down < 0 {
				copy(buf[(band+1)*wpr:], g.oneRow)
			}
		}
	}

	var updates int64
	for gen := 0; gen < n; gen++ {
		lane.Begin(nGen)
		top := src[wpr : 2*wpr]                     // first owned row
		bot := src[band*wpr : (band+1)*wpr]         // last owned row
		haloTop := src[:wpr]                        // row lo-1's image
		haloBot := src[(band+1)*wpr : (band+2)*wpr] // row hi's image
		// Post both sends before any receive. Sends are eager, and a
		// sender parked on a full inbox keeps draining its own (msgpass's
		// progress rule), so the symmetric exchange completes even when
		// early Allreduce traffic from ranks that ran ahead fills an inbox.
		// The payloads are copies, so a neighbor may apply them whenever it
		// reaches its own exchange.
		if up != rank {
			if up >= 0 {
				if err := msgpass.Send(c, up, distTagUp, append([]uint64(nil), top...)); err != nil {
					return err
				}
			}
			if down >= 0 {
				if err := msgpass.Send(c, down, distTagDown, append([]uint64(nil), bot...)); err != nil {
					return err
				}
			}
		}
		// The shared kernel over owned rows only; the local buffer is
		// band+2 rows tall and rows [1, band+1) never reach past it, so the
		// kernel never synthesizes a ghost row (hence no ghost-row buffers):
		// all vertical neighbor data comes from the halos, while column
		// edge behavior (mode) works exactly as on the full grid. Interior
		// rows [2, band) read only owned rows, so they run while the halos
		// are in flight.
		updates += stepPackedSlices(src, dst, nil, nil, band+2, cols, wpr, mode, 2, band, 0, wpr)
		lane.Begin(nHalo)
		if up == rank { // single-rank torus: both neighbors are us
			copy(haloTop, bot)
			copy(haloBot, top)
		} else {
			// The neighbor above's bottom row arrives as tagDown, the one
			// below's top row as tagUp.
			if up >= 0 {
				row, err := msgpass.Recv[[]uint64](c, up, distTagDown)
				if err != nil {
					return err
				}
				copy(haloTop, row)
			}
			if down >= 0 {
				row, err := msgpass.Recv[[]uint64](c, down, distTagUp)
				if err != nil {
					return err
				}
				copy(haloBot, row)
			}
		}
		// A MirrorEdges boundary reflects the rank's own edge row into the
		// halo; the reflection changes every generation, so refresh it on
		// the current source parity.
		if mode == MirrorEdges {
			if up < 0 {
				copy(haloTop, top)
			}
			if down < 0 {
				copy(haloBot, bot)
			}
		}
		lane.End(nHalo)
		// The edge rows, now that their halos are filled. A 1-row band's
		// only row is both edges, and is stepped once.
		updates += stepPackedSlices(src, dst, nil, nil, band+2, cols, wpr, mode, 1, 2, 0, wpr)
		if band > 1 {
			updates += stepPackedSlices(src, dst, nil, nil, band+2, cols, wpr, mode, band, band+1, 0, wpr)
		}
		lane.End(nGen)
		src, dst = dst, src
	}

	// Stats meet in an Allreduce: every rank learns the global total, the
	// root records it.
	total, err := msgpass.Allreduce(c, updates, func(a, b int64) int64 { return a + b })
	if err != nil {
		return err
	}

	// Collect: everyone mails the final band home; rank 0 assembles the
	// next generation buffer (promoted to current after the world joins).
	if rank == 0 {
		copy(g.next[lo*wpr:hi*wpr], src[wpr:(band+1)*wpr])
		for r := 1; r < ranks; r++ {
			rlo, rhi := pthread.BlockRange(r, ranks, rows)
			block, err := msgpass.Recv[[]uint64](c, r, distTagBlock)
			if err != nil {
				return err
			}
			if len(block) != (rhi-rlo)*wpr {
				return fmt.Errorf("rank 0: block from %d has %d words, want %d", r, len(block), (rhi-rlo)*wpr)
			}
			copy(g.next[rlo*wpr:rhi*wpr], block)
		}
		stats.LiveUpdates = total
		stats.Rounds = n
	} else {
		if err := msgpass.Send(c, 0, distTagBlock, append([]uint64(nil), src[wpr:(band+1)*wpr]...)); err != nil {
			return err
		}
	}
	return nil
}
