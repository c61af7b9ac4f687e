package msgpass

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// Tests for the fault layer: the deadlock watchdog, receive deadlines,
// rank failure, and context cancellation. Timing constants are chosen so
// the tests stay fast but never flaky: watchdog timeouts are tens of
// milliseconds (detection latency is 1-2 timeouts) and every "returns
// promptly" assertion allows a full second before declaring a hang.

const watchdogTick = 40 * time.Millisecond

// newTestWorld builds a world for a test whose ranks block on Send/Recv,
// with the watchdog armed, so a protocol hang fails within a few ticks
// with the blocked ranks named instead of running into the test timeout.
func newTestWorld(t *testing.T, size int, opts ...Option) *World {
	t.Helper()
	w, err := NewWorld(size, append(opts, WithWatchdog(watchdogTick))...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSelfSendDeadlockDetected is the positive form of the documented
// capacity-0 self-send deadlock: a rendezvous send to yourself can never
// complete (the rank cannot drain its own inbox while parked in the send),
// and the watchdog must report it as a one-rank cycle instead of the run
// hanging.
func TestSelfSendDeadlockDetected(t *testing.T) {
	w, err := NewWorld(1, WithCapacity(0), WithWatchdog(watchdogTick))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		return c.Send(0, 5, "never delivered")
	})
	if err == nil {
		t.Fatal("self rendezvous send completed; want deadlock")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a DeadlockError", err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("error %v does not unwrap to ErrDeadlock", err)
	}
	if len(de.Cycle) != 1 {
		t.Fatalf("cycle %v: want exactly one rank", de.Cycle)
	}
	wait := de.Cycle[0]
	if wait.Rank != 0 || wait.Op != "send" || wait.Peer != 0 || wait.Tag != 5 {
		t.Errorf("cycle entry %+v: want rank 0 send(peer 0, tag 5)", wait)
	}
	if got := de.Ranks(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Ranks() = %v, want [0]", got)
	}
}

// TestHeadToHeadDeadlockDetected: two ranks that both send first under
// rendezvous capacity are the classic MPI_Ssend deadlock. The watchdog must
// name both ranks in the cycle.
func TestHeadToHeadDeadlockDetected(t *testing.T) {
	w, err := NewWorld(2, WithCapacity(0), WithWatchdog(watchdogTick))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		peer := 1 - c.Rank()
		if err := c.Send(peer, 3, c.Rank()); err != nil {
			return err
		}
		_, err := c.Recv(peer, 3)
		return err
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a DeadlockError", err)
	}
	if de.Orphaned {
		t.Errorf("head-to-head cycle reported as orphaned: %v", de)
	}
	ranks := de.Ranks()
	if len(ranks) != 2 {
		t.Fatalf("cycle %v: want both ranks", de.Cycle)
	}
	if (ranks[0] != 0 || ranks[1] != 1) && (ranks[0] != 1 || ranks[1] != 0) {
		t.Errorf("Ranks() = %v, want {0,1}", ranks)
	}
	for _, wt := range de.Cycle {
		if wt.Op != "send" {
			t.Errorf("cycle entry %+v: want a send wait", wt)
		}
	}
}

// TestParkedSenderDrainsOwnInbox is the progress rule: in a buffered world a
// sender parked on a full inbox keeps receiving. Rank 2 fills the inboxes of
// ranks 0 and 1 to capacity; then 0 and 1 send to each other. Each send
// parks on a full inbox, so without the rule the pair is a send-send cycle
// the watchdog reports; with it each parked sender drains its own inbox and
// both sends land. The drained messages must still arrive in send order.
func TestParkedSenderDrainsOwnInbox(t *testing.T) {
	const capacity = 2
	w, err := NewWorld(3, WithCapacity(capacity), WithWatchdog(watchdogTick))
	if err != nil {
		t.Fatal(err)
	}
	filled := make(chan struct{})
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			for _, dst := range []int{0, 1} {
				for i := 0; i < capacity; i++ {
					if err := Send(c, dst, 7, i); err != nil {
						return err
					}
				}
			}
			close(filled)
			return nil
		}
		<-filled
		peer := 1 - c.Rank()
		if err := Send(c, peer, 1, c.Rank()); err != nil {
			return err
		}
		got, err := Recv[int](c, peer, 1)
		if err != nil {
			return err
		}
		if got != peer {
			return fmt.Errorf("rank %d got %d from peer %d", c.Rank(), got, peer)
		}
		for i := 0; i < capacity; i++ {
			v, err := Recv[int](c, 2, 7)
			if err != nil {
				return err
			}
			if v != i {
				return fmt.Errorf("rank %d: message %d from rank 2 is %d (order lost)", c.Rank(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("buffered exchange over full inboxes failed: %v", err)
	}
}

// TestOrphanedRecvDetected: a receive from a rank whose function has
// already returned (and that left nothing in flight) can never be
// satisfied. The watchdog reports it as an orphaned wait, not a cycle.
func TestOrphanedRecvDetected(t *testing.T) {
	w, err := NewWorld(2, WithWatchdog(watchdogTick))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return nil // exit immediately, sending nothing
		}
		_, err := c.Recv(1, 0)
		return err
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a DeadlockError", err)
	}
	if !de.Orphaned {
		t.Errorf("wait on an exited rank not marked orphaned: %v", de)
	}
	if len(de.Cycle) != 1 || de.Cycle[0].Rank != 0 || de.Cycle[0].Op != "recv" || de.Cycle[0].Peer != 1 {
		t.Errorf("orphan report %v: want rank 0 recv(peer 1)", de.Cycle)
	}
}

// TestWatchdogIgnoresSlowButLiveRanks: a rank that is merely slow (its
// peer delivers after several watchdog periods) must not be reported — the
// watchdog trips only on waits that provably cannot clear.
func TestWatchdogIgnoresSlowButLiveRanks(t *testing.T) {
	w, err := NewWorld(2, WithWatchdog(watchdogTick))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(4 * watchdogTick)
			return c.Send(0, 0, "late")
		}
		got, err := c.Recv(1, 0)
		if err != nil {
			return err
		}
		if got != "late" {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("slow-but-live exchange reported as fault: %v", err)
	}
}

// TestWatchdogIgnoresTimedWaits: a RecvTimeout that is part of what would
// otherwise be a deadlock must resolve via its own timeout, not the
// watchdog — deadline-bearing waits are exempt from detection.
func TestWatchdogIgnoresTimedWaits(t *testing.T) {
	w, err := NewWorld(1, WithWatchdog(watchdogTick))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		_, err := c.RecvTimeout(0, 0, 4*watchdogTick)
		return err
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout (not a watchdog report)", err)
	}
	if errors.Is(err, ErrDeadlock) {
		t.Fatalf("timed wait reported as deadlock: %v", err)
	}
}

// TestRecvTimeoutExpires: no sender ever shows, so the timed receive must
// return a structured TimeoutError naming the wait.
func TestRecvTimeoutExpires(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		start := time.Now()
		_, err := c.RecvTimeout(1, 9, 30*time.Millisecond)
		if elapsed := time.Since(start); elapsed > time.Second {
			return fmt.Errorf("timed receive took %v", elapsed)
		}
		return err
	})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a TimeoutError", err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error %v does not unwrap to ErrTimeout", err)
	}
	if te.Rank != 0 || te.Source != 1 || te.Tag != 9 {
		t.Errorf("TimeoutError %+v: want rank 0 waiting on (1, 9)", te)
	}
}

// TestRecvTimeoutDeliversInTime: a message that arrives within the budget
// is delivered normally — the timeout path must not eat real traffic.
func TestRecvTimeoutDeliversInTime(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return Send(c, 0, 2, 42)
		}
		got, err := RecvTimeout[int](c, 1, 2, time.Second)
		if err != nil {
			return err
		}
		if got != 42 {
			return fmt.Errorf("got %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExpiredDeadlineStillPolls: RecvDeadline with a deadline already in
// the past must still drain anything already buffered — the timed receive
// doubles as a poll.
func TestExpiredDeadlineStillPolls(t *testing.T) {
	w, err := NewWorld(2, WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return Send(c, 0, 0, "buffered")
		case 0:
			// Wait until the message is definitely buffered, then poll with
			// an expired deadline.
			got, err := c.Recv(1, 0)
			if err != nil {
				return err
			}
			if got != "buffered" {
				return fmt.Errorf("got %v", got)
			}
			// Now genuinely nothing buffered: the expired deadline must
			// report a timeout immediately rather than block.
			start := time.Now()
			_, err = c.RecvDeadline(1, 0, time.Now().Add(-time.Second))
			if time.Since(start) > time.Second {
				return fmt.Errorf("expired-deadline receive blocked")
			}
			if !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("got %v, want ErrTimeout", err)
			}
			return nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFailUnblocksPendingRecv: a rank blocked receiving from a peer that is
// then failed must return promptly with RankFailedError naming the peer.
func TestFailUnblocksPendingRecv(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			// Die without sending; rank 0 is (or soon will be) blocked on us.
			return w.Fail(1)
		}
		_, err := c.Recv(1, 0)
		return err
	})
	var rf *RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("error %v is not a RankFailedError", err)
	}
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("error %v does not unwrap to ErrRankFailed", err)
	}
	if rf.Rank != 1 {
		t.Errorf("RankFailedError names rank %d, want 1", rf.Rank)
	}
}

// TestRecvFromDeadRankDrainsInFlight: messages a rank sent before dying
// must still be delivered; only once nothing deliverable remains does the
// receive report the death.
func TestRecvFromDeadRankDrainsInFlight(t *testing.T) {
	w, err := NewWorld(2, WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			if err := Send(c, 0, 7, "last words"); err != nil {
				return err
			}
			return w.Fail(1)
		}
		// Ensure the failure has landed before the first receive, so the
		// drain path (not a lucky early delivery) is what is under test.
		for !w.comms[1].Failed() {
			time.Sleep(time.Millisecond)
		}
		got, err := c.Recv(1, 7)
		if err != nil {
			return fmt.Errorf("pre-death message lost: %w", err)
		}
		if got != "last words" {
			return fmt.Errorf("got %v", got)
		}
		_, err = c.Recv(1, 7)
		if !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("second recv got %v, want ErrRankFailed", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendToDeadRankErrors: both the eager fast path and a parked
// rendezvous send must error out when the destination is failed.
func TestSendToDeadRankErrors(t *testing.T) {
	t.Run("eager", func(t *testing.T) {
		w, err := NewWorld(2, WithCapacity(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Fail(1); err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			if c.Rank() != 0 {
				return nil
			}
			return c.Send(1, 0, "into the void")
		})
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("got %v, want ErrRankFailed", err)
		}
	})
	t.Run("parked", func(t *testing.T) {
		w, err := NewWorld(2, WithCapacity(0))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			if c.Rank() == 1 {
				// Let rank 0 park in the rendezvous send, then die.
				time.Sleep(20 * time.Millisecond)
				return w.Fail(1)
			}
			return c.Send(1, 0, "never taken")
		})
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("got %v, want ErrRankFailed", err)
		}
	})
}

// TestFailedRankOwnOpsError: after a rank is failed, its own operations
// (including one it is blocked inside) return RankFailedError naming it.
func TestFailedRankOwnOpsError(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(20 * time.Millisecond)
			return w.Fail(1)
		}
		_, e := c.Recv(0, 0) // blocks; released by our own failure
		errs[1] = e
		if _, e2 := c.Recv(0, 1); !errors.Is(e2, ErrRankFailed) {
			return fmt.Errorf("post-failure op got %v, want ErrRankFailed", e2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var rf *RankFailedError
	if !errors.As(errs[1], &rf) || rf.Rank != 1 {
		t.Fatalf("blocked op on failed rank got %v, want RankFailedError{Rank: 1}", errs[1])
	}
}

// TestCollectiveUnwindsOnRankFailure: a Barrier spanning a failed rank must
// release every rank with an error instead of hanging. The rank adjacent to
// the dead rank errors via the failure channel; ranks blocked on peers that
// then exited are released by the watchdog's orphan detection — the two
// halves of the fault machinery working together.
func TestCollectiveUnwindsOnRankFailure(t *testing.T) {
	const size = 8
	w, err := NewWorld(size, WithWatchdog(watchdogTick))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Fail(3); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) error {
			if c.Rank() == 3 {
				return nil // the dead rank never enters the barrier
			}
			return c.Barrier()
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("got %v, want ErrRankFailed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier spanning a failed rank hung")
	}
}

// TestRunCtxCancelUnblocksAllRanks: cancelling the context must abort the
// world, return an error wrapping the context error, and leave zero rank
// goroutines live inside the run.
func TestRunCtxCancelUnblocksAllRanks(t *testing.T) {
	const size = 8
	w, err := NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- w.RunCtx(ctx, func(c *Comm) error {
			// Every rank waits on a message that never comes.
			_, err := c.Recv((c.Rank()+1)%size, 0)
			return err
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the ranks park
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled RunCtx did not return")
	}
	if got := w.Stats().Running; got != 0 {
		t.Errorf("%d rank goroutines still live after canceled RunCtx", got)
	}
	if cause := w.AbortCause(); !errors.Is(cause, context.Canceled) {
		t.Errorf("AbortCause() = %v, want context.Canceled", cause)
	}
}

// TestRunCtxDeadlineExceeded: a context deadline behaves like cancellation
// and surfaces context.DeadlineExceeded through the rank errors.
func TestRunCtxDeadlineExceeded(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = w.RunCtx(ctx, func(c *Comm) error {
		_, err := c.Recv(1-c.Rank(), 0)
		return err
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline-bound run took %v to unwind", elapsed)
	}
}

// TestAbortedWorldStaysDead: after an abort every later operation fails
// with the original cause — a dead world cannot be quietly reused.
func TestAbortedWorldStaysDead(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = w.RunCtx(ctx, func(c *Comm) error {
		_, err := c.Recv(1-c.Rank(), 0)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first run got %v, want context.Canceled", err)
	}
	err = w.Run(func(c *Comm) error {
		return c.Send(1-c.Rank(), 0, "ghost")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("reuse of aborted world got %v, want the original abort cause", err)
	}
}

// TestFailValidation: failing an out-of-range rank is an error, and failing
// a rank twice is a no-op.
func TestFailValidation(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Fail(2); err == nil {
		t.Error("Fail(2) on a 2-rank world succeeded")
	}
	if err := w.Fail(-1); err == nil {
		t.Error("Fail(-1) succeeded")
	}
	if err := w.Fail(1); err != nil {
		t.Errorf("first Fail(1): %v", err)
	}
	if err := w.Fail(1); err != nil {
		t.Errorf("second Fail(1): %v", err)
	}
	if !w.comms[1].Failed() {
		t.Error("rank 1 not marked failed")
	}
}

// TestWatchdogValidation: a negative watchdog timeout is rejected at
// NewWorld time; zero means disabled and is fine.
func TestWatchdogValidation(t *testing.T) {
	if _, err := NewWorld(2, WithWatchdog(-time.Second)); err == nil {
		t.Error("negative watchdog timeout accepted")
	}
	if _, err := NewWorld(2, WithWatchdog(0)); err != nil {
		t.Errorf("zero (disabled) watchdog rejected: %v", err)
	}
}
