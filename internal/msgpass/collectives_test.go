package msgpass

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// worldSizes covers the tree's interesting shapes: single rank, under one
// leaf (<= fan-in), exactly one full level, multi-level, and the surplus
// shapes the barrier differentials use (16, 33).
var worldSizes = []int{1, 2, 3, 4, 5, 8, 16, 33}

func TestBarrierPhases(t *testing.T) {
	for _, size := range worldSizes {
		size := size
		t.Run(fmt.Sprintf("size-%d", size), func(t *testing.T) {
			w := newTestWorld(t, size)
			const rounds = 5
			var entered atomic.Int64
			err := w.Run(func(c *Comm) error {
				for r := 0; r < rounds; r++ {
					entered.Add(1)
					if err := c.Barrier(); err != nil {
						return err
					}
					// Everyone passed the barrier, so every rank's round-r
					// increment must be visible.
					if got := entered.Load(); got < int64((r+1)*size) {
						return fmt.Errorf("rank %d round %d: %d arrivals visible, want >= %d",
							c.Rank(), r, got, (r+1)*size)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := entered.Load(); got != int64(rounds*size) {
				t.Errorf("entered %d, want %d", got, rounds*size)
			}
		})
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for _, size := range []int{1, 3, 5, 8} {
		for root := 0; root < size; root++ {
			size, root := size, root
			t.Run(fmt.Sprintf("size-%d/root-%d", size, root), func(t *testing.T) {
				w := newTestWorld(t, size)
				want := fmt.Sprintf("payload-from-%d", root)
				err := w.Run(func(c *Comm) error {
					v := ""
					if c.Rank() == root {
						v = want
					}
					got, err := Bcast(c, root, v)
					if err != nil {
						return err
					}
					if got != want {
						return fmt.Errorf("rank %d got %q, want %q", c.Rank(), got, want)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestReduceDifferential folds rank-dependent values through the message
// tree and checks the root's result against the sequential reference sum —
// for every world size and every root.
func TestReduceDifferential(t *testing.T) {
	add := func(a, b int64) int64 { return a + b }
	for _, size := range worldSizes {
		size := size
		t.Run(fmt.Sprintf("size-%d", size), func(t *testing.T) {
			for root := 0; root < size; root += 1 + size/4 {
				want := int64(0)
				for r := 0; r < size; r++ {
					want += int64(r*r + 1)
				}
				w := newTestWorld(t, size)
				err := w.Run(func(c *Comm) error {
					got, err := Reduce(c, root, int64(c.Rank()*c.Rank()+1), add)
					if err != nil {
						return err
					}
					if c.Rank() == root && got != want {
						return fmt.Errorf("root %d reduced %d, want %d", root, got, want)
					}
					if c.Rank() != root && got != 0 {
						return fmt.Errorf("non-root rank %d got %d, want 0", c.Rank(), got)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestAllreduceDifferential: every rank must see the same combined value,
// equal to the sequential reference, under both a sum and a max operator.
func TestAllreduceDifferential(t *testing.T) {
	for _, size := range worldSizes {
		size := size
		t.Run(fmt.Sprintf("size-%d", size), func(t *testing.T) {
			wantSum := int64(size) * int64(size+1) / 2
			wantMax := int64(size - 1)
			w := newTestWorld(t, size)
			err := w.Run(func(c *Comm) error {
				sum, err := Allreduce(c, int64(c.Rank()+1), func(a, b int64) int64 { return a + b })
				if err != nil {
					return err
				}
				if sum != wantSum {
					return fmt.Errorf("rank %d allreduce sum %d, want %d", c.Rank(), sum, wantSum)
				}
				max, err := Allreduce(c, int64(c.Rank()), func(a, b int64) int64 {
					if a > b {
						return a
					}
					return b
				})
				if err != nil {
					return err
				}
				if max != wantMax {
					return fmt.Errorf("rank %d allreduce max %d, want %d", c.Rank(), max, wantMax)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	for _, size := range worldSizes {
		size := size
		t.Run(fmt.Sprintf("size-%d", size), func(t *testing.T) {
			w := newTestWorld(t, size)
			err := w.Run(func(c *Comm) error {
				var values []int
				if c.Rank() == 0 {
					values = make([]int, size)
					for i := range values {
						values[i] = 10 * i
					}
				}
				mine, err := Scatter(c, 0, values)
				if err != nil {
					return err
				}
				if mine != 10*c.Rank() {
					return fmt.Errorf("rank %d scattered %d, want %d", c.Rank(), mine, 10*c.Rank())
				}
				all, err := Gather(c, 0, mine+1)
				if err != nil {
					return err
				}
				if c.Rank() != 0 {
					if all != nil {
						return fmt.Errorf("non-root gather returned %v", all)
					}
					return nil
				}
				for i, v := range all {
					if v != 10*i+1 {
						return fmt.Errorf("gathered[%d] = %d, want %d", i, v, 10*i+1)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCollectivesInterleaveWithUserTraffic: collectives in the reserved
// negative tag space must not swallow user messages in flight across them.
func TestCollectivesInterleaveWithUserTraffic(t *testing.T) {
	w := newTestWorld(t, 4, WithCapacity(16))
	err := w.Run(func(c *Comm) error {
		// User messages posted before the collective storm...
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		if err := Send(c, next, 77, c.Rank()*1000); err != nil {
			return err
		}
		for round := 0; round < 3; round++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			if _, err := Allreduce(c, 1, func(a, b int) int { return a + b }); err != nil {
				return err
			}
		}
		// ...must still be matchable afterwards.
		got, err := Recv[int](c, prev, 77)
		if err != nil {
			return err
		}
		if got != prev*1000 {
			return fmt.Errorf("rank %d got %d from %d, want %d", c.Rank(), got, prev, prev*1000)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveValidation(t *testing.T) {
	w := newTestWorld(t, 1)
	err := w.Run(func(c *Comm) error {
		if _, err := Bcast(c, 3, 0); err == nil {
			return fmt.Errorf("bcast with out-of-range root accepted")
		}
		if _, err := Reduce(c, 0, 1, nil); err == nil {
			return fmt.Errorf("reduce with nil op accepted")
		}
		if _, err := Allreduce[int](c, 1, nil); err == nil {
			return fmt.Errorf("allreduce with nil op accepted")
		}
		if _, err := Scatter(c, 0, []int{1, 2}); err == nil {
			return fmt.Errorf("scatter with wrong value count accepted")
		}
		if _, err := Gather(c, -1, 0); err == nil {
			return fmt.Errorf("gather with bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveCounters: one barrier + one allreduce per rank must show up
// as exactly two collective calls per rank.
func TestCollectiveCounters(t *testing.T) {
	w := newTestWorld(t, 5)
	err := w.Run(func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		_, err := Allreduce(c, 1, func(a, b int) int { return a + b })
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := w.Stats()
	for _, s := range ws.PerRank {
		if s.Collectives != 2 {
			t.Errorf("rank %d collective count %d, want 2", s.Rank, s.Collectives)
		}
	}
	if ws.Collectives != 10 {
		t.Errorf("world collective count %d, want 10", ws.Collectives)
	}
}
