package life

// Bit-packed board representation and SWAR generation kernel: 64 cells per
// uint64 word, one word of lanes advanced per step of the inner loop.
//
// Layout: row r occupies words cells[r*wpr : (r+1)*wpr] with wpr =
// ceil(Cols/64); bit j of word w is the cell in column w*64+j (LSB = lowest
// column). The last word of a row has Cols&63 valid lanes when Cols is not
// a multiple of 64; its slack lanes are ALWAYS zero — Set, Randomize, and
// the kernel's edge-word mask all maintain the invariant, and every shifted
// neighbor gather relies on it.
//
// Neighbor counting is branch-free boolean algebra over a sliding window
// of column sums. For each source word the kernel adds its three rows (up,
// current, down; ghost rows synthesized per edge mode) lane by lane with
// one full adder, giving the 0..3 live count of each of its 64 columns as
// two bit planes. It keeps the planes of the west, own and east words in
// registers as it walks a row, so each source word is loaded and summed
// once. Shifting the planes one lane each way (the neighbor word's edge
// bit, or a ghost column at the row's ends, fills the vacated lane) lines
// up the column sums at j-1, j and j+1; adding those three 2-bit
// numbers gives count9, the live count of each cell's 3x3 block, the cell
// itself included. Since count9 is the neighbor count plus the cell, the
// Lab 10 rule becomes
//
//	next = (count9 == 3) | (current & count9 == 4)
//
// evaluated on the planes for 64 cells at once. The row's first and last
// words take their ghost columns outside the inner loop, which therefore
// has no per-word branch. Live-update statistics come back for free as
// bits.OnesCount64(next ^ current) per word.

import "math/bits"

// wordsPerRow returns the packed row stride for a given width.
func wordsPerRow(cols int) int { return (cols + 63) >> 6 }

// lastWordMask is the valid-lane mask of a row's final word.
func lastWordMask(cols int) uint64 {
	if rem := uint(cols) & 63; rem != 0 {
		return (uint64(1) << rem) - 1
	}
	return ^uint64(0)
}

// packedRowIn returns packed row r, synthesizing the mode's ghost row when r
// is out of bounds: the wrapped row under Torus, the all-dead row under
// DeadEdges, the all-live row under AliveEdges, and the clamped edge row
// under MirrorEdges. Ghost rows are ready-made buffers (zeroRow, oneRow) or
// clamped/wrapped views of the board, so the call allocates nothing.
func packedRowIn(p, zeroRow, oneRow []uint64, rows, wpr int, mode EdgeMode, r int) []uint64 {
	if r < 0 || r >= rows {
		switch mode {
		case Torus:
			if r < 0 {
				r = rows - 1
			} else {
				r = 0
			}
		case DeadEdges:
			return zeroRow
		case AliveEdges:
			return oneRow
		case MirrorEdges:
			r = clamp(r, rows)
		}
	}
	base := r * wpr
	return p[base : base+wpr]
}

// packedGhostCols returns the one-bit ghost columns flanking a packed row:
// west is the cell at column -1, east the cell at column cols (both in lane
// 0 of the returned words). Under Torus they wrap to the row's far ends,
// under MirrorEdges they clamp onto the row's own edge cells, and the
// dead/alive modes are constants. lastLane is (cols-1)&63, the valid lane
// index of the row's final word.
func packedGhostCols(row []uint64, mode EdgeMode, lastLane uint) (west, east uint64) {
	switch mode {
	case Torus:
		return row[len(row)-1] >> lastLane & 1, row[0] & 1
	case DeadEdges:
		return 0, 0
	case AliveEdges:
		return 1, 1
	default: // MirrorEdges
		return row[0] & 1, row[len(row)-1] >> lastLane & 1
	}
}

// stepPackedSlices computes the next generation for rows [loRow, hiRow) ×
// words [loW, hiW) of src into dst and returns how many cells changed
// state. It is the packed hot kernel shared by the serial engine, the
// ParallelRunner tiles, and the DistRunner bands. Tiles split on word
// boundaries: an output word reads only its own row triple (plus the
// adjacent words for the shifted alignments) from the read-only source
// parity buffer, so concurrent tiles never write-share a word. Allocates
// nothing.
func stepPackedSlices(src, dst, zeroRow, oneRow []uint64, rows, cols, wpr int, mode EdgeMode, loRow, hiRow, loW, hiW int) int64 {
	if loRow >= hiRow || loW >= hiW {
		return 0
	}
	lastLane := uint(cols-1) & 63
	lastMask := lastWordMask(cols)
	end := min(hiW, wpr-1) // the row's last word, if in the tile, runs after the loop
	var changed int64
	for r := loRow; r < hiRow; r++ {
		base := r * wpr
		cur := src[base : base+wpr]
		out := dst[base : base+wpr][:len(cur)]
		up := packedRowIn(src, zeroRow, oneRow, rows, wpr, mode, r-1)[:len(cur)]
		down := packedRowIn(src, zeroRow, oneRow, rows, wpr, mode, r+1)[:len(cur)]
		// Ghost columns are per-row: a ghost row's own ghost corners come
		// from that row (e.g. the torus corner is the wrapped row's far
		// cell), matching the per-cell rule's independent row/column
		// mapping exactly.
		uw, ue := packedGhostCols(up, mode, lastLane)
		cw, ce := packedGhostCols(cur, mode, lastLane)
		dw, de := packedGhostCols(down, mode, lastLane)
		// The window: p = the west word's column sums, c = the own word's
		// (cc its current-row word). Word loW's west context is word
		// loW-1, or the west ghost column parked in lane 63, where the
		// west shift picks up its top bit.
		p0, p1 := colSum(uw<<63, cw<<63, dw<<63)
		if loW > 0 {
			p0, p1 = colSum(up[loW-1], cur[loW-1], down[loW-1])
		}
		cc := cur[loW]
		c0, c1 := colSum(up[loW], cc, down[loW])
		// Words before end have their east neighbor in the row: nu, nc
		// and nd are the source rows shifted one word east. All four
		// slices have length end, so the loop needs no bounds checks.
		o, nu, nc, nd := out[:end], up[1:end+1], cur[1:end+1], down[1:end+1]
		for w := loW; w < len(o); w++ {
			ncw := nc[w]
			n0, n1 := colSum(nu[w], ncw, nd[w])
			next := lifeWord(c0<<1|p0>>63, c1<<1|p1>>63, c0, c1, c0>>1|n0<<63, c1>>1|n1<<63, cc)
			o[w] = next
			changed += int64(bits.OnesCount64(next ^ cc))
			p0, p1, c0, c1, cc = c0, c1, n0, n1, ncw
		}
		if hiW == wpr {
			// The row's last word: the east ghost column lands on the top
			// valid lane (slack lanes above it are zero by invariant), and
			// the mask clears the slack lanes the shifts spill into.
			e0, e1 := colSum(ue, ce, de)
			next := lifeWord(c0<<1|p0>>63, c1<<1|p1>>63, c0, c1, c0>>1|e0<<lastLane, c1>>1|e1<<lastLane, cc) & lastMask
			out[wpr-1] = next
			changed += int64(bits.OnesCount64(next ^ cc))
		}
	}
	return changed
}

// colSum adds three vertically stacked words lane by lane: the sum
// u+c+d (0..3) of each of 64 columns comes back as bit planes s0 (1s) and
// s1 (2s) — a full adder.
func colSum(u, c, d uint64) (s0, s1 uint64) {
	x := u ^ c
	return x ^ d, u&c | d&x
}

// lifeWord applies the rule to 64 cells at once. Its inputs are the
// column-sum planes aligned on the west neighbor (w), the cell's own
// column (c) and the east neighbor (e); their sum count9 is the live count
// of the 3x3 block, the cell itself included. Alive next iff count9 == 3,
// or count9 == 4 with the cell live — the Lab 10 rule, since count9 is the
// neighbor count plus the cell.
func lifeWord(w0, w1, c0, c1, e0, e1, cur uint64) uint64 {
	// count9 = s0 + 2*t with t = w1+c1+e1+k in 0..4 (k carries the 1s).
	x := w0 ^ c0
	s0 := x ^ e0
	k := w0&c0 | e0&x
	y := w1 ^ c1
	ta := y ^ e1        // 1s of w1+c1+e1
	tc := w1&c1 | e1&y  // 2s of w1+c1+e1
	t0 := ta ^ k        // t's 1s
	t1 := tc ^ (ta & k) // t's 2s; t is 1 or 2 iff exactly one of t0, t1
	// t == 1 (count9 3) needs s0 set; t == 2 (count9 4) needs s0 clear
	// and the cell live. s0 == t0 selects the case, s0|cur the liveness.
	return (t0 ^ t1) &^ (s0 ^ t0) & (s0 | cur)
}
