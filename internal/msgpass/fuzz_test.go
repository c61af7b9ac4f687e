package msgpass

import (
	"fmt"
	"testing"
)

// matchScript is a decoded fuzz input: a set of sender rank scripts and the
// receiver's recv order over them.
type matchScript struct {
	senders [][]scriptMsg // senders[i] = rank i+1's sends, in send order
	recvs   [][2]int      // (sender index, tag) in receive order
}

type scriptMsg struct {
	tag int
	val int
}

// decodeMatchScript turns fuzz bytes into a deadlock-free matching script:
// up to 4 senders with up to 24 messages total over a small tag space, and
// a receive order that is a byte-driven permutation of the send multiset —
// so every Recv has a matching Send and the run always terminates.
func decodeMatchScript(data []byte) *matchScript {
	if len(data) < 2 {
		return nil
	}
	nSenders := 1 + int(data[0])%4
	nMsgs := 1 + int(data[1])%24
	data = data[2:]
	s := &matchScript{senders: make([][]scriptMsg, nSenders)}
	val := 0
	for i := 0; i < nMsgs; i++ {
		var b byte
		if i < len(data) {
			b = data[i]
		}
		sender := int(b>>4) % nSenders
		tag := int(b) % 4
		s.senders[sender] = append(s.senders[sender], scriptMsg{tag: tag, val: val})
		s.recvs = append(s.recvs, [2]int{sender, tag})
		val++
	}
	// Permute the receive order with the remaining bytes (Fisher-Yates with
	// byte-driven choices); any order is legal because matching is by
	// (source, tag), not arrival.
	perm := data
	if nMsgs < len(perm) {
		perm = perm[nMsgs:]
	}
	for i := len(s.recvs) - 1; i > 0; i-- {
		var b byte
		if i < len(perm) {
			b = perm[i]
		}
		j := int(b) % (i + 1)
		s.recvs[i], s.recvs[j] = s.recvs[j], s.recvs[i]
	}
	return s
}

// refMatch is the sequential reference matcher: for each requested
// (sender, tag) it delivers the first not-yet-consumed message from that
// sender with that tag, in send order — the semantics Recv promises.
func refMatch(s *matchScript) []int {
	consumed := make([][]bool, len(s.senders))
	for i := range consumed {
		consumed[i] = make([]bool, len(s.senders[i]))
	}
	out := make([]int, 0, len(s.recvs))
	for _, rq := range s.recvs {
		sender, tag := rq[0], rq[1]
		for i, m := range s.senders[sender] {
			if !consumed[sender][i] && m.tag == tag {
				consumed[sender][i] = true
				out = append(out, m.val)
				break
			}
		}
	}
	return out
}

// runMatchScript plays the script through a real world: rank 0 receives,
// ranks 1..n replay their send scripts. The inbox is sized to hold every
// message so sender scheduling can never block, leaving the receive-side
// matching as the only degree of freedom under test. The watchdog turns a
// receive that can never match into a DeadlockError instead of a hang.
func runMatchScript(s *matchScript) ([]int, error) {
	total := 0
	for _, msgs := range s.senders {
		total += len(msgs)
	}
	w, err := NewWorld(len(s.senders)+1, WithCapacity(total+1), WithWatchdog(watchdogTick))
	if err != nil {
		return nil, err
	}
	got := make([]int, 0, len(s.recvs))
	err = w.Run(func(c *Comm) error {
		if c.Rank() > 0 {
			for _, m := range s.senders[c.Rank()-1] {
				if err := Send(c, 0, m.tag, m.val); err != nil {
					return err
				}
			}
			return nil
		}
		for _, rq := range s.recvs {
			v, err := Recv[int](c, rq[0]+1, rq[1])
			if err != nil {
				return err
			}
			got = append(got, v)
		}
		return nil
	})
	return got, err
}

// TestSendRecvMatchingDifferential replays fixed interleavings (the fuzz
// seed corpus) against the sequential reference matcher — the deterministic
// anchor for FuzzSendRecvMatching.
func TestSendRecvMatchingDifferential(t *testing.T) {
	for i, seed := range matchSeeds() {
		s := decodeMatchScript(seed)
		if s == nil {
			t.Fatalf("seed %d too short", i)
		}
		want := refMatch(s)
		got, err := runMatchScript(s)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("seed %d: delivered %v, reference %v", i, got, want)
		}
	}
}

func matchSeeds() [][]byte {
	return [][]byte{
		{0, 0, 0},
		{1, 7, 0x00, 0x11, 0x22, 0x33, 0x10, 0x21, 0x32, 9, 4, 2},
		{3, 23, 0xff, 0x80, 0x41, 0x02, 0xc3, 0x84, 0x45, 0x06, 0xc7, 0x88,
			0x49, 0x0a, 0xcb, 0x8c, 0x4d, 0x0e, 0xcf, 0x90, 0x51, 0x12, 0xd3,
			0x94, 0x55, 7, 31, 1, 250, 13},
		{2, 15, 0x33, 0x33, 0x33, 0x12, 0x12, 0x12, 0x70, 0x70, 0x70, 0x55,
			0x55, 0x55, 0x01, 0x01, 0x01, 200, 100, 50, 25, 12, 6, 3},
	}
}

// FuzzSendRecvMatching drives random (source, tag) send interleavings and
// receive orders through the runtime and checks every delivery against the
// sequential reference matcher.
func FuzzSendRecvMatching(f *testing.F) {
	for _, seed := range matchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeMatchScript(data)
		if s == nil {
			return
		}
		want := refMatch(s)
		got, err := runMatchScript(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %d messages, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("delivery %d: got %d, reference %d (script %+v)", i, got[i], want[i], s)
			}
		}
	})
}
