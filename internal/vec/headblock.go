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
// gives one row's IU^ℓ (RowIU) and collects the survivors of a run of
// blocks (Collect).

// HeadBlockRows is the number of sorted rows in a block: what one pass of
// Collect's body decides.
const HeadBlockRows = 16

// HeadStep is the number of head floors one step of the VNNI body
// reads per row: two pairs, one VPDPBUSD. A w that is not a multiple of
// it leaves lanes of the last step zero, decided for nothing, so core
// rounds its derived checking dimension up to one (DESIGN.md §3). It is
// a constant, not a property of the CPU: every host builds one index.
const HeadStep = 4

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
// int32 lanes Collect accumulates in hold it for any row and query in
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

// RowBytes returns what one row adds to the stream Collect reads: its P
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
// the block kernel reads, bound once so that deciding a run costs two row
// numbers and a cut. The item side is fixed by NewTest; the query side is
// written per query: the floors through Floors, the rest through SetQuery.
type HeadTest struct {
	tab    HeadTable
	tails  []float64 // ‖p̄^h‖ per row, n of them
	floors []int16   // the query's 2·P floors, the odd-w lane zero
	sumAbs int32     // Σ|g|
	factor float64   // converts IU^ℓ to a bound on the head product
	tail   float64   // ‖q̄^h‖

	// The query as the VNNI body reads it (SetQuery): per two pairs, the
	// even-row and the odd-row operand, 16 dwords each; the constant
	// Σ|g| − 128·Σg; and whether every floor fits an int8.
	dwords []int32
	bias   int32
	int8Q  bool
}

// NewTest binds the table and tails, ‖p̄^h‖ of each of its rows. It panics
// when the lengths disagree — the kernels rely on them.
func (t *HeadTable) NewTest(tails []float64) HeadTest {
	if len(tails) != len(t.consts) {
		panic("vec: head tables of different lengths")
	}
	p := t.lay.pairs
	return HeadTest{tab: *t, tails: tails, floors: make([]int16, 2*p), dwords: make([]int32, (p+1)/2*2*HeadBlockRows)}
}

// Floors returns the query's floor slots: the caller writes its w floors,
// each in [−o, o−1], to the first w and leaves the rest zero.
func (h *HeadTest) Floors() []int16 { return h.floors }

// SetQuery sets the query's Σ|g|, the factor that converts IU^ℓ to a bound
// on the head product, and ‖q̄^h‖, and lays the floors out for the VNNI
// body. That body multiplies the table's bytes, XORed with 0x80 into the
// unsigned f+128, by signed query bytes four to a dword: a 64-byte load is
// pairs 2s and 2s+1 of the block, dword k < 8 holding rows 2k and 2k+1 of
// the first, dword 8+k of the second. So step s has two operands — the
// query pair as (g, g′, 0, 0) for the even rows and (0, 0, g, g′) for the
// odd ones, pair 2s in the low eight dwords and pair 2s+1 in the high
// eight — and IU^ℓ is Σ(f+128)g plus the row's Σ|f|+w plus the per-query
// bias Σ|g| − 128·Σg. Every partial sum stays within w·255·128 < 2³¹ for
// each layout NewHeadLayout admits, so the int32 lanes are exact.
func (h *HeadTest) SetQuery(sumAbs int32, factor, tail float64) {
	h.sumAbs, h.factor, h.tail = sumAbs, factor, tail
	h.bias, h.int8Q = sumAbs, true
	for _, g := range h.floors {
		h.bias -= 128 * int32(g)
		h.int8Q = h.int8Q && g == int16(int8(g))
	}
	clear(h.dwords)
	for p := 0; p+1 < len(h.floors); p += 2 {
		g := uint32(uint8(h.floors[p])) | uint32(uint8(h.floors[p+1]))<<8
		step := h.dwords[p/4*2*HeadBlockRows:][:2*HeadBlockRows]
		half := p / 2 % 2 * HeadBlockRows / 2
		for k := range HeadBlockRows / 2 {
			step[half+k] = int32(g)
			step[HeadBlockRows+half+k] = int32(g << 16)
		}
	}
}

// RowIU returns IU^ℓ = Σfg + Σ|f| + w + Σ|g| of row i in int64: the
// one-row form of what Collect decides per lane.
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

// CollectLimit is the number of survivors at which Collect ends a run
// early: a fixed batch, not a setting.
const CollectLimit = 16

// Survivors is the buffer Collect fills: row and IU^ℓ of each survivor, in
// row order. It has room for a whole block past CollectLimit − 1, which
// the vector bodies store before they count.
type Survivors struct {
	Rows [CollectLimit + HeadBlockRows]int32
	IU   [CollectLimit + HeadBlockRows]int32
}

// Collect (kernels_amd64.go, kernels_other.go) runs the head test of
// Algorithm 5 lines 2–4 at one cut over the blocks that start at row,
// row+16, … below end — row a multiple of HeadBlockRows, end any row
// after it, every one of those blocks complete in the tables. Row r
// survives iff
//
//	!(float64(RowIU(r))·factor + tail·tails[r] < cut)
//
// both products rounded before the add — not the strict prune, so a NaN
// on either side of the comparison prunes nothing. Collect writes each
// survivor's row and IU^ℓ to out.Rows[k] and out.IU[k], k = 0, 1, … in row
// order, and stops after the block that brings it to CollectLimit
// survivors or more, or at the run's end. It returns next, the first row
// of the first block it did not decide (a multiple of HeadBlockRows, end
// rounded up when the run ended), and n, the survivors written — those of
// whole blocks, so rows before the caller's first row or at and after end
// are the caller's to drop. Three bodies implement it, each bit for bit
// the expression above: the plain-Go collectPortable everywhere, and on
// amd64 the AVX2 assembly and, when CPUID reports AVX-512 VNNI, the VNNI
// assembly (kernels_amd64.s) for queries whose floors fit an int8 — every
// query the scan prepares.

// collectPortable is Collect by the plain-Go body on every platform: the
// lanes are int32 like the assembly's, one pair group at a time, the
// floors and Σ|f|+w widened as they are read.
func (h *HeadTest) collectPortable(row, end int, cut float64, out *Survivors) (next, n int) {
	h.checkRun(row, end)
	pairs := h.tab.lay.pairs
	var iu [HeadBlockRows]int32
	for ; row < end && n < CollectLimit; row += HeadBlockRows {
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
		for j, v := range iu {
			if !(float64(float64(v)*h.factor)+float64(h.tail*tails[j]) < cut) {
				out.Rows[n&(len(out.Rows)-1)] = int32(row + j)
				out.IU[n&(len(out.IU)-1)] = v
				n++
			}
		}
	}
	return row, n
}

// checkRun panics unless the blocks from row to below end are complete
// blocks of the tables: with NewTest's length check, the bounds check of
// the assembly.
func (h *HeadTest) checkRun(row, end int) {
	if row < 0 || row%HeadBlockRows != 0 || (row < end && (end+HeadBlockRows-1)/HeadBlockRows*HeadBlockRows > len(h.tails)) {
		panic("vec: head block run outside the table")
	}
}
