package vec

import "math"

// The integer head test in 16-row blocks (DESIGN.md §3).
//
// The w head floors of a row — integers in [−o, o−1], o ≤ 32767 — are
// stored as int16 (int8 in a narrow layout, see NewHeadLayout: the same
// positions at half the bytes, sign-extended as they are read), signed as
// Theorem 2 writes them, P = ⌈w/2⌉ pairs to a row with a zero in the odd-w
// lane. Rows are grouped HeadBlockRows at a
// time and a block is stored pair-major: block b, pair p, row j holds
// floors (2p, 2p+1) at
//
//	((b·P + p)·16 + j)·2
//
// so the 16 rows' copies of one pair are 64 (narrow: 32) contiguous bytes,
// and one 32-bit lane is one row's pair. The query side is its w floors as int16
// in order, followed by the zero lane: 2·P values. VPMADDWD of a pair
// group with the broadcast query pair then leaves f₂ₚg₂ₚ + f₂ₚ₊₁g₂ₚ₊₁ in
// each row's int32 lane, and P of them summed onto Σ|f|+w and Σ|g| is
// IU^ℓ of Eq. 6 for 16 rows at once. Rows past the last one in the final
// block are zero.
//
// HeadLayout hides the addressing and HeadTable the width: rows go in and
// out through PackRow and UnpackRow, and a HeadTest bound to the table gives
// one row's IU^ℓ (RowIU) and decides a run of blocks (BlockRun).

// HeadBlockRows is the number of sorted rows in a block: what one pass of
// BlockRun's body decides.
const HeadBlockRows = 16

// allPruned is the mask of a block in which the head test prunes every row.
const allPruned = 1<<HeadBlockRows - 1

// HeadLayout is the block layout of w floors in [−o, o−1]. The zero value
// is not usable; call NewHeadLayout.
type HeadLayout struct {
	w      int
	pairs  int   // P
	o      int64 // floors lie in [−o, o−1]
	narrow bool  // every floor is an int8 and every Σ|f|+w an int16
}

// NewHeadLayout returns the layout of w floors in [−o, o−1], or false
// when a floor would not fit int16 (or o, w are not positive). o = 32768
// is excluded although −32768 is an int16: two such floors against two
// such query floors are the one VPMADDWD input whose pair sum wraps. The
// layout is narrow — int8 floors at the same positions, int16 Σ|f|+w —
// exactly when both fit: o ≤ 128 and w·(o+1) ≤ 32767. The width is this
// function of (o, w) and nothing else's choice; sign extension gives back
// the int16 a wide table would hold, so no lane depends on it.
func NewHeadLayout(o int64, w int) (HeadLayout, bool) {
	if o <= 0 || o > 32767 || w <= 0 {
		return HeadLayout{}, false
	}
	narrow := o <= 128 && int64(w)*(o+1) <= math.MaxInt16
	return HeadLayout{w: w, pairs: (w + 1) / 2, o: o, narrow: narrow}, true
}

// Offset returns o.
func (l *HeadLayout) Offset() int64 { return l.o }

// Pairs returns P, the floor pairs a row occupies; a query is 2·P int16.
func (l *HeadLayout) Pairs() int { return l.pairs }

// Narrow reports whether the tables hold int8 floors and int16 Σ|f|+w.
func (l *HeadLayout) Narrow() bool { return l.narrow }

// RowBytes returns what one row adds to the stream BlockRun reads: its P
// floor pairs, Σ|f|+w and the float64 ‖p̄^h‖ — 2P+2+8 narrow, 4P+4+8 wide.
func (l *HeadLayout) RowBytes() int {
	if l.narrow {
		return 2*l.pairs + 2 + 8
	}
	return 4*l.pairs + 4 + 8
}

// Len returns the number of floors holding n rows: whole blocks.
func (l *HeadLayout) Len(n int) int {
	return (n + HeadBlockRows - 1) / HeadBlockRows * l.pairs * HeadBlockRows * 2
}

// Lanes32 reports whether IU^ℓ = Σfg + Σ|f| + Σ|g| + w, and every partial
// sum of it, fits the int32 lanes BlockRun accumulates in for any row and
// any query in range: |IU^ℓ| ≤ w·o² + 2·w·o + w = w·(o+1)² < 2³¹. Where
// it does not, only HeadTest.RowIU (int64) may be used. Every narrow
// layout satisfies it.
func (l *HeadLayout) Lanes32() bool {
	return int64(l.w) <= (1<<31-1)/((l.o+1)*(l.o+1))
}

// headIndex returns the position of floor s of row i in a layout of P =
// pairs: the addressing above.
func headIndex(pairs, i, s int) int {
	return ((i/HeadBlockRows*pairs+s/2)*HeadBlockRows+i%HeadBlockRows)*2 + s%2
}

// HeadTable is the item side of the head test of n rows: the floors in the
// layout's blocks and Σ|f|+w per row, in the one width the layout has.
type HeadTable struct {
	lay      HeadLayout
	head8    []int8 // narrow: lay.Len(n) floors and n consts
	consts16 []int16
	head16   []int16 // wide
	consts32 []int32
}

// NewTable returns the zeroed table of n rows.
func (l HeadLayout) NewTable(n int) HeadTable {
	if l.narrow {
		return HeadTable{lay: l, head8: make([]int8, l.Len(n)), consts16: make([]int16, n)}
	}
	return HeadTable{lay: l, head16: make([]int16, l.Len(n)), consts32: make([]int32, n)}
}

// PackRow stores the w floors f and their Σ|f|+w as row i and returns
// Σ|f|. It reports whether every floor lay in [−o, o−1]; the row is
// unusable otherwise. Rows may be packed concurrently.
func (t *HeadTable) PackRow(i int, f []int32) (sumAbs int64, ok bool) {
	if t.lay.narrow {
		return packRow(&t.lay, t.head8, t.consts16, i, f)
	}
	return packRow(&t.lay, t.head16, t.consts32, i, f)
}

func packRow[F int8 | int16, C int16 | int32](l *HeadLayout, head []F, consts []C, i int, f []int32) (sumAbs int64, ok bool) {
	ok = true
	for s, x := range f[:l.w] {
		ok = ok && -l.o <= int64(x) && int64(x) < l.o
		head[headIndex(l.pairs, i, s)] = F(x)
		sumAbs += int64(max(x, -x))
	}
	consts[i] = C(sumAbs + int64(l.w))
	return sumAbs, ok
}

// UnpackRow inverts PackRow: f receives the w floors of row i, and Σ|f|
// is returned.
func (t *HeadTable) UnpackRow(f []int32, i int) (sumAbs int64) {
	if t.lay.narrow {
		return unpackRow(&t.lay, t.head8, t.consts16, i, f)
	}
	return unpackRow(&t.lay, t.head16, t.consts32, i, f)
}

func unpackRow[F int8 | int16, C int16 | int32](l *HeadLayout, head []F, consts []C, i int, f []int32) int64 {
	for s := range f[:l.w] {
		f[s] = int32(head[headIndex(l.pairs, i, s)])
	}
	return int64(consts[i]) - int64(l.w)
}

// HeadTest is the head test of one query over one index's tables — what
// the block kernel reads, bound once so that deciding a block costs a row
// number and a cut. The item side is fixed by NewTest; the query side is
// written per query: the floors through Floors, the rest through SetQuery.
type HeadTest struct {
	tab    HeadTable // the layout and the two slices of its width
	lanes  bool      // HeadLayout.Lanes32: BlockRun may run
	tails  []float64 // ‖p̄^h‖ per row, n of them
	floors []int16   // the query's 2·P floors, the odd-w lane zero
	sumAbs int32     // Σ|g|
	factor float64   // converts IU^ℓ to a bound on the head product
	tail   float64   // ‖q̄^h‖
}

// NewTest binds the table and tails, ‖p̄^h‖ of each of its rows. It panics
// when the lengths disagree — the kernels rely on them.
func (t *HeadTable) NewTest(tails []float64) HeadTest {
	if len(tails) != len(t.consts16)+len(t.consts32) {
		panic("vec: head tables of different lengths")
	}
	return HeadTest{tab: *t, lanes: t.lay.Lanes32(), tails: tails, floors: make([]int16, 2*t.lay.pairs)}
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
// one-row form of what BlockRun holds per lane, exact at every o a
// layout exists for.
func (h *HeadTest) RowIU(i int) int64 {
	if t := &h.tab; t.lay.narrow {
		return rowIU(h, t.head8, t.consts16, i)
	}
	return rowIU(h, h.tab.head16, h.tab.consts32, i)
}

func rowIU[F int8 | int16, C int16 | int32](h *HeadTest, head []F, consts []C, i int) int64 {
	at := headIndex(h.tab.lay.pairs, i, 0)
	s := int64(consts[i]) + int64(h.sumAbs)
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
// run is pruned; iu is scratch then. It panics unless the layout satisfies
// Lanes32. With AVX2 the run is decided by the assembly in kernels_amd64.s;
// everywhere else, and as the reference that is tested against, by
// BlockRunPortable. Every lane of either is bit for bit the expression
// above.

// BlockRunPortable is BlockRun by the plain-Go body on every platform: the
// lanes are int32 like the assembly's, one pair group at a time, the floors
// and Σ|f|+w widened as they are read.
func (h *HeadTest) BlockRunPortable(row, end int, cut float64, iu *[HeadBlockRows]int32) (at int, pruned uint32) {
	if t := &h.tab; t.lay.narrow {
		return blockRun(h, t.head8, t.consts16, row, end, cut, iu)
	}
	return blockRun(h, h.tab.head16, h.tab.consts32, row, end, cut, iu)
}

func blockRun[F int8 | int16, C int16 | int32](h *HeadTest, head []F, rowConsts []C, row, end int, cut float64, iu *[HeadBlockRows]int32) (at int, pruned uint32) {
	h.checkRun(row, end)
	pairs := h.tab.lay.pairs
	for ; row < end; row += HeadBlockRows {
		block := head[row*pairs*2:][:pairs*HeadBlockRows*2]
		consts, tails := rowConsts[row:][:HeadBlockRows], h.tails[row:][:HeadBlockRows]
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

// checkRun panics unless the lanes hold IU^ℓ and the blocks from row to
// below end are complete blocks of the tables: with NewTest's length check,
// the bounds check of the assembly.
func (h *HeadTest) checkRun(row, end int) {
	if !h.lanes || row < 0 || row%HeadBlockRows != 0 || (row < end && (end+HeadBlockRows-1)/HeadBlockRows*HeadBlockRows > len(h.tails)) {
		panic("vec: head block run outside the table or the int32 lanes")
	}
}
