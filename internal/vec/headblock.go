package vec

import "math"

// The integer head test in 16-row blocks (DESIGN.md §3).
//
// The w head floors of a row — integers in [−o, o−1], o ≤ 128 — are
// stored as int8, signed as Theorem 2 writes them, P = ⌈w/2⌉ pairs to a
// row with a zero in the odd-w lane, beside the row's Σ|f|+w as an int16.
// Rows are grouped HeadBlockRows at a time and a block is stored
// pair-major: block b, pair p, row j holds floors (2p, 2p+1) at
//
//	((b·P + p)·16 + j)·2
//
// so the 16 rows' copies of one pair are 32 contiguous bytes, and one
// pair is one row's 32-bit lane once sign-extended to int16. The query
// side is its w floors as int16 in order, followed by the zero lane: 2·P
// values. VPMADDWD of a widened pair group with the broadcast query pair
// then leaves f₂ₚg₂ₚ + f₂ₚ₊₁g₂ₚ₊₁ in each row's int32 lane, and P of them
// summed onto Σ|f|+w and Σ|g| is IU^ℓ of Eq. 6 for 16 rows at once. Rows
// past the last one in the final block are zero.
//
// HeadLayout hides the addressing and HeadTable the storage: rows go in
// and out through PackRow and UnpackRow, and a HeadTest bound to the table
// gives one row's IU^ℓ (RowIU) and decides a run of blocks (BlockRun).

// HeadBlockRows is the number of sorted rows in a block: what one pass of
// BlockRun's body decides.
const HeadBlockRows = 16

// allPruned is the mask of a block in which the head test prunes every row.
const allPruned = 1<<HeadBlockRows - 1

// HeadLayout is the block layout of w floors in [−o, o−1]. The zero value
// is not usable; call NewHeadLayout.
type HeadLayout struct {
	w     int
	pairs int   // P
	o     int64 // floors lie in [−o, o−1]
}

// NewHeadLayout returns the layout of w floors in [−o, o−1], or false
// unless every floor fits an int8 and every Σ|f|+w an int16: o ≤ 128 and
// w·(o+1) ≤ 32767 (at o = 128, w ≤ 254), o and w positive. Then IU^ℓ and
// every partial sum of it lie within w·(o+1)² ≤ 32767·129 < 2³¹, so the
// int32 lanes BlockRun accumulates in hold it for any row and query in
// range.
func NewHeadLayout(o int64, w int) (HeadLayout, bool) {
	if o <= 0 || o > 128 || w <= 0 || int64(w)*(o+1) > math.MaxInt16 {
		return HeadLayout{}, false
	}
	return HeadLayout{w: w, pairs: (w + 1) / 2, o: o}, true
}

// Offset returns o.
func (l *HeadLayout) Offset() int64 { return l.o }

// Pairs returns P, the floor pairs a row occupies; a query is 2·P int16.
func (l *HeadLayout) Pairs() int { return l.pairs }

// RowBytes returns what one row adds to the stream BlockRun reads: its P
// floor pairs, Σ|f|+w and the float64 ‖p̄^h‖.
func (l *HeadLayout) RowBytes() int { return 2*l.pairs + 2 + 8 }

// Len returns the number of floors holding n rows: whole blocks.
func (l *HeadLayout) Len(n int) int {
	return (n + HeadBlockRows - 1) / HeadBlockRows * l.pairs * HeadBlockRows * 2
}

// headIndex returns the position of floor s of row i in a layout of P =
// pairs: the addressing above.
func headIndex(pairs, i, s int) int {
	return ((i/HeadBlockRows*pairs+s/2)*HeadBlockRows+i%HeadBlockRows)*2 + s%2
}

// HeadTable is the item side of the head test of n rows: the floors in the
// layout's blocks and Σ|f|+w per row.
type HeadTable struct {
	lay    HeadLayout
	head   []int8  // lay.Len(n) floors
	consts []int16 // Σ|f|+w, n of them
}

// NewTable returns the zeroed table of n rows.
func (l HeadLayout) NewTable(n int) HeadTable {
	return HeadTable{lay: l, head: make([]int8, l.Len(n)), consts: make([]int16, n)}
}

// PackRow stores the w floors f and their Σ|f|+w as row i and returns
// Σ|f|. It reports whether every floor lay in [−o, o−1]; the row is
// unusable otherwise. Rows may be packed concurrently.
func (t *HeadTable) PackRow(i int, f []int32) (sumAbs int64, ok bool) {
	l := &t.lay
	// Floor s sits 2·HeadBlockRows·⌊s/2⌋ + s mod 2 past floor 0; the
	// range is checked once on the row's extremes, not per floor.
	head := t.head[headIndex(l.pairs, i, 0):]
	lo, hi := int32(0), int32(0)
	for s, x := range f[:l.w] {
		head[s/2*2*HeadBlockRows+s%2] = int8(x)
		sumAbs += int64(max(x, -x))
		lo, hi = min(lo, x), max(hi, x)
	}
	t.consts[i] = int16(sumAbs + int64(l.w))
	return sumAbs, -l.o <= int64(lo) && int64(hi) < l.o
}

// UnpackRow inverts PackRow: f receives the w floors of row i, and Σ|f|
// is returned.
func (t *HeadTable) UnpackRow(f []int32, i int) (sumAbs int64) {
	for s := range f[:t.lay.w] {
		f[s] = int32(t.head[headIndex(t.lay.pairs, i, s)])
	}
	return int64(t.consts[i]) - int64(t.lay.w)
}

// HeadTest is the head test of one query over one index's tables — what
// the block kernel reads, bound once so that deciding a block costs a row
// number and a cut. The item side is fixed by NewTest; the query side is
// written per query: the floors through Floors, the rest through SetQuery.
type HeadTest struct {
	tab    HeadTable
	tails  []float64 // ‖p̄^h‖ per row, n of them
	floors []int16   // the query's 2·P floors, the odd-w lane zero
	sumAbs int32     // Σ|g|
	factor float64   // converts IU^ℓ to a bound on the head product
	tail   float64   // ‖q̄^h‖
}

// NewTest binds the table and tails, ‖p̄^h‖ of each of its rows. It panics
// when the lengths disagree — the kernels rely on them.
func (t *HeadTable) NewTest(tails []float64) HeadTest {
	if len(tails) != len(t.consts) {
		panic("vec: head tables of different lengths")
	}
	return HeadTest{tab: *t, tails: tails, floors: make([]int16, 2*t.lay.pairs)}
}

// Floors returns the query's floor slots: the caller writes its w floors,
// each in [−o, o−1], to the first w and leaves the rest zero.
func (h *HeadTest) Floors() []int16 { return h.floors }

// SetQuery sets the query's Σ|g|, the factor that converts IU^ℓ to a bound
// on the head product, and ‖q̄^h‖.
func (h *HeadTest) SetQuery(sumAbs int32, factor, tail float64) {
	h.sumAbs, h.factor, h.tail = sumAbs, factor, tail
}

// RowIU returns IU^ℓ = Σfg + Σ|f| + w + Σ|g| of row i in int64: the
// one-row form of what BlockRun holds per lane.
func (h *HeadTest) RowIU(i int) int64 {
	head := h.tab.head
	at := headIndex(h.tab.lay.pairs, i, 0)
	s := int64(h.tab.consts[i]) + int64(h.sumAbs)
	for p := 0; p+1 < len(h.floors); p += 2 {
		s += int64(head[at])*int64(h.floors[p]) + int64(head[at+1])*int64(h.floors[p+1])
		at += HeadBlockRows * 2
	}
	return s
}

// BlockRun (kernels_amd64.go, kernels_other.go) runs the head test of
// Algorithm 5 lines 2–4 at one cut over the blocks that start at row,
// row+16, … below end (row a multiple of HeadBlockRows, every one of those
// blocks complete in the tables) until a block holds a row the test does
// NOT prune. Bit j of a block's mask is set iff
//
//	float64(RowIU(b+j))·factor + tail·tails[b+j] < cut
//
// both products rounded before the add — the strict prune of row b+j, so a
// NaN on either side of the comparison prunes nothing. It returns the first
// block whose mask is not all ones, with that mask and, in iu, the block's
// 16 IU^ℓ (iu[j] = RowIU(b+j)), or (end, all ones) when every row of the
// run is pruned; iu is scratch then. With AVX2 the run is decided by the
// assembly in kernels_amd64.s; everywhere else, and as the reference that
// is tested against, by BlockRunPortable. Every lane of either is bit for
// bit the expression above.

// BlockRunPortable is BlockRun by the plain-Go body on every platform: the
// lanes are int32 like the assembly's, one pair group at a time, the floors
// and Σ|f|+w widened as they are read.
func (h *HeadTest) BlockRunPortable(row, end int, cut float64, iu *[HeadBlockRows]int32) (at int, pruned uint32) {
	h.checkRun(row, end)
	pairs := h.tab.lay.pairs
	for ; row < end; row += HeadBlockRows {
		block := h.tab.head[row*pairs*2:][:pairs*HeadBlockRows*2]
		consts, tails := h.tab.consts[row:][:HeadBlockRows], h.tails[row:][:HeadBlockRows]
		for j := range iu {
			iu[j] = int32(consts[j]) + h.sumAbs
		}
		//fex:hot
		for p := 0; p+1 < len(h.floors); p += 2 {
			g0, g1 := int32(h.floors[p]), int32(h.floors[p+1])
			group := block[p*HeadBlockRows:][:HeadBlockRows*2]
			for j := range iu {
				iu[j] += int32(group[2*j])*g0 + int32(group[2*j+1])*g1
			}
		}
		var m uint32
		for j, v := range iu {
			if float64(float64(v)*h.factor)+float64(h.tail*tails[j]) < cut {
				m |= 1 << uint(j)
			}
		}
		if m != allPruned {
			return row, m
		}
	}
	return end, allPruned
}

// checkRun panics unless the blocks from row to below end are complete
// blocks of the tables: with NewTest's length check, the bounds check of
// the assembly.
func (h *HeadTest) checkRun(row, end int) {
	if row < 0 || row%HeadBlockRows != 0 || (row < end && (end+HeadBlockRows-1)/HeadBlockRows*HeadBlockRows > len(h.tails)) {
		panic("vec: head block run outside the table")
	}
}
