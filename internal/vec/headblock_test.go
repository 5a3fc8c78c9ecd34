package vec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func mustHeadLayout(t testing.TB, o int64, w int) HeadLayout {
	t.Helper()
	l, ok := NewHeadLayout(o, w)
	if !ok {
		t.Fatalf("o=%d w=%d: no layout", o, w)
	}
	return l
}

// setFloors writes the query floors g into h and returns Σ|g|.
func setFloors(h *HeadTest, g []int32) (sumAbs int64) {
	q := h.Floors()
	clear(q)
	for s, x := range g {
		q[s] = int16(x)
		sumAbs += int64(max(x, -x))
	}
	return sumAbs
}

// TestHeadRowDotMatchesDotInt64 is the differential test of the layout's
// addressing: over widths on both sides of a pair boundary, E up to 127
// and w up to the 254 floors o = 128 admits — rows packed into every position
// of three blocks unpack to what went in, Σ|f| included, and RowIU is
// DotInt64 on the plain floors plus the Σ|·| terms — for random vectors
// and for vectors pinned at the range ends −o (the ⌊−e−ε⌋ floor) and o−1.
func TestHeadRowDotMatchesDotInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		e float64
		w int
	}{
		{10, 1}, {10, 50}, {100, 2}, {100, 17}, {100, 18}, {100, 19}, {100, 51},
		{126, 7}, {127, 1}, {127, 7}, {127, 64}, {127, 253}, {127, 254},
	} {
		o := int64(math.Ceil(tc.e)) + 1
		l := mustHeadLayout(t, o, tc.w)
		if l.Pairs() != (tc.w+1)/2 || l.Offset() != o {
			t.Fatalf("E=%v w=%d: %d pairs at offset %d", tc.e, tc.w, l.Pairs(), l.Offset())
		}
		fill := func(f func(s int) int32) []int32 {
			v := make([]int32, tc.w)
			for s := range v {
				v[s] = f(s)
			}
			return v
		}
		lo, hi := int32(-o), int32(o-1)
		vectors := [][]int32{
			fill(func(int) int32 { return lo }),
			fill(func(int) int32 { return hi }),
			fill(func(s int) int32 { return []int32{lo, hi}[s%2] }),
			fill(func(int) int32 { return 0 }),
		}
		for r := 0; r < 8; r++ {
			vectors = append(vectors, fill(func(int) int32 { return lo + int32(rng.Int63n(2*o)) }))
		}
		const n = 3*HeadBlockRows - 5
		if l.Len(n) != 3*HeadBlockRows*2*l.Pairs() {
			t.Fatalf("E=%v w=%d: %d rows take %d floors", tc.e, tc.w, n, l.Len(n))
		}
		tab := l.NewTable(n)
		rows := make([][]int32, n)
		sums := make([]int64, n)
		for i := range rows {
			rows[i] = vectors[rng.Intn(len(vectors))]
			var ok bool
			if sums[i], ok = tab.PackRow(i, rows[i]); !ok {
				t.Fatalf("E=%v w=%d: PackRow rejected %v", tc.e, tc.w, rows[i])
			}
		}
		h := tab.NewTest(make([]float64, n))
		back := make([]int32, tc.w)
		for i, a := range rows {
			var want int64
			for _, x := range a {
				want += int64(max(x, -x))
			}
			if got := tab.UnpackRow(back, i); got != want || sums[i] != want {
				t.Fatalf("E=%v w=%d row %d: Σ|f| packed %d, unpacked %d, want %d", tc.e, tc.w, i, sums[i], got, want)
			}
			for s := range a {
				if back[s] != a[s] {
					t.Fatalf("E=%v w=%d row %d: UnpackRow[%d] = %d, packed %d", tc.e, tc.w, i, s, back[s], a[s])
				}
			}
			for _, b := range vectors {
				sumAbs := setFloors(&h, b)
				h.SetQuery(int32(sumAbs), 1, 1)
				if got, want := h.RowIU(i), DotInt64(a, b)+sums[i]+int64(tc.w)+sumAbs; got != want {
					t.Fatalf("E=%v w=%d row %d: RowIU %d, from DotInt64 %d\na=%v\nb=%v", tc.e, tc.w, i, got, want, a, b)
				}
			}
		}
	}
}

// TestHeadLayoutRejects: floors outside [−o, o−1] are reported, and shapes
// whose floors an int8 or whose Σ|f|+w an int16 cannot hold have no
// layout — o = 129 and, at o = 128, w = 255 the first of each.
func TestHeadLayoutRejects(t *testing.T) {
	for _, o := range []int64{101, 128} {
		l := mustHeadLayout(t, o, 4)
		tab := l.NewTable(1)
		for _, v := range [][]int32{{0, int32(o), 0, 0}, {int32(-o - 1), 0, 0, 0}, {0, 0, 0, 1 << 16}} {
			if _, ok := tab.PackRow(0, v); ok {
				t.Fatalf("PackRow accepted %v at offset %d", v, o)
			}
		}
	}
	for _, tc := range []struct {
		o int64
		w int
	}{{0, 4}, {-3, 4}, {101, 0}, {129, 1}, {129, 4}, {128, 255}, {101, 322}, {30, 1058}, {32767, 1}, {math.MaxInt32, 4}} {
		if _, ok := NewHeadLayout(tc.o, tc.w); ok {
			t.Fatalf("NewHeadLayout(%d, %d) succeeded", tc.o, tc.w)
		}
	}
}

// TestHeadLayoutWidth pins the accepting side of the predicate — o ≤ 128
// and w·(o+1) ≤ 32767, TestHeadLayoutRejects has the other — with what a
// row streams, and runs the kernels over the largest Σ|f|+w a table
// admits: 1057 floors of −30 (an odd w) make exactly 32767. Floors of −128
// and 127 in every lane are TestHeadBlockMaskMatchesRows's e = 127.
func TestHeadLayoutWidth(t *testing.T) {
	for _, tc := range []struct {
		o int64
		w int
	}{{1, 1}, {2, 1}, {101, 50}, {101, 321}, {128, 7}, {128, 254}, {127, 255}, {30, 1057}} {
		l := mustHeadLayout(t, tc.o, tc.w)
		if want := 2*l.Pairs() + 2 + 8; l.RowBytes() != want {
			t.Fatalf("o=%d w=%d: RowBytes %d, want %d", tc.o, tc.w, l.RowBytes(), want)
		}
	}
	for _, body := range kernelBodies() {
		forceBody(t, body)
		tails := make([]float64, 2*HeadBlockRows)
		c := newHeadBlockCase(t, 30, 1057, func() int32 { return -30 }, tails, 1.0/900, 1)
		if got := c.h.tab.consts[len(tails)]; got != math.MaxInt16 {
			t.Fatalf("%s: Σ|f|+w of 1057 floors of −30 stored as %d", body, got)
		}
		c.checkCuts(t)
	}
}

// headBlockCase is a run's worth of head-test operands: the blocks under
// test preceded by another so their first row is not 0.
type headBlockCase struct {
	l      HeadLayout
	h      HeadTest
	ius    []int64   // IU^ℓ row by row in int64, the leading block included
	bounds []float64 // the bound from it
}

// newHeadBlockCase packs the floors of len(tails) rows — whole blocks, w
// floors each — and a query (w) drawn by next, which returns values in
// [−o, o]. PackRow reports +o as out of range; the kernels must still agree
// on what it stored — o itself, except at o = 128, where it is −128 — and
// the lanes' bound w·(o+1)² covers |f| = o.
func newHeadBlockCase(t testing.TB, o int64, w int, next func() int32, tails []float64, factor, qTail float64) *headBlockCase {
	c := &headBlockCase{l: mustHeadLayout(t, o, w)}
	l := &c.l
	n := HeadBlockRows + len(tails)
	tails = append(make([]float64, HeadBlockRows), tails...)
	tab := l.NewTable(n)
	c.h = tab.NewTest(tails)
	c.ius, c.bounds = make([]int64, n), make([]float64, n)
	g := make([]int32, w)
	for s := range g {
		g[s] = next()
	}
	qSumAbs := setFloors(&c.h, g)
	c.h.SetQuery(int32(qSumAbs), factor, qTail)
	f := make([]int32, w)
	for i := HeadBlockRows; i < n; i++ {
		for s := range f {
			f[s] = next()
		}
		sumAbs, _ := tab.PackRow(i, f)
		tab.UnpackRow(f, i)
		c.ius[i] = DotInt64(f, g) + sumAbs + int64(w) + qSumAbs
		if got := c.h.RowIU(i); got != c.ius[i] {
			t.Fatalf("o=%d w=%d row %d: RowIU %d, from floors %d", o, w, i, got, c.ius[i])
		}
		c.bounds[i] = float64(float64(c.ius[i])*factor) + float64(qTail*tails[i])
	}
	return c
}

// check runs both bodies over the blocks from row to below end at cut and
// compares stop position, mask and — where the run stopped at a block — all
// 16 IU lanes, with each other and with the row-by-row int64 evaluation. It
// returns where the run stopped.
func (c *headBlockCase) check(t testing.TB, row, end int, cut float64) int {
	var iu, iuRef [HeadBlockRows]int32
	at, pruned := c.h.BlockRun(row, end, cut, &iu)
	atRef, prunedRef := c.h.BlockRunPortable(row, end, cut, &iuRef)
	what := fmt.Sprintf("o=%d w=%d blocks [%d,%d) cut=%v", c.l.o, c.l.w, row, end, cut)
	if at != atRef || pruned != prunedRef || (at < end && iu != iuRef) {
		t.Fatalf("%s %+v: BlockRun (%d, %#04x, %v), plain-Go body (%d, %#04x, %v)", what, c.h, at, pruned, iu, atRef, prunedRef, iuRef)
	}
	wantAt, want := end, uint32(allPruned)
	for b := row; b < end && wantAt == end; b += HeadBlockRows {
		var m uint32
		for j, v := range c.bounds[b:][:HeadBlockRows] {
			if v < cut {
				m |= 1 << uint(j)
			}
		}
		if m != allPruned {
			wantAt, want = b, m
		}
	}
	if at != wantAt || pruned != want {
		t.Fatalf("%s %+v: BlockRun (%d, %#04x), row by row (%d, %#04x) (bounds %v)", what, c.h, at, pruned, wantAt, want, c.bounds[row:])
	}
	if at < end {
		for j, v := range iu {
			if int64(v) != c.ius[at+j] {
				t.Fatalf("%s: IU lane %d of block %d is %d, RowIU %d", what, j, at, v, c.ius[at+j])
			}
		}
	}
	return at
}

// checkCuts runs check over runs of zero, one and all the blocks, from the
// first and from the second block, to a block boundary and to the middle of
// the last block, at NaN, ±Inf and on and next to every row's bound: strict
// <, so a row whose bound equals the cut is not pruned. NaN and −Inf prune
// nothing: the run stops at its first block.
func (c *headBlockCase) checkCuts(t testing.TB) {
	first, n := HeadBlockRows, len(c.bounds)
	cuts := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	for _, b := range c.bounds[first:] {
		cuts = append(cuts, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)))
	}
	for _, r := range [][2]int{{first, first}, {first, 0}, {n, n}, {first, first + HeadBlockRows}, {first, n}, {first, n - 5}, {first + HeadBlockRows, n}} {
		for _, cut := range cuts {
			at := c.check(t, r[0], r[1], cut)
			if prunesNothing := math.IsNaN(cut) || math.IsInf(cut, -1); prunesNothing && r[0] < r[1] && at != r[0] {
				t.Fatalf("o=%d w=%d blocks [%d,%d) cut=%v: the run stopped at %d, not at its first block", c.l.o, c.l.w, r[0], r[1], cut, at)
			}
		}
	}
}

// TestHeadBlockMaskMatchesRows: each body of BlockRun decides every row of
// a run as the one-row int64 evaluation does and hands out the lanes RowIU
// gives, over the widths and E of the scan's shapes table — random floors
// and floors pinned at −o, o−1 and o everywhere, where IU is largest. The last of the five blocks carries the
// largest tails, so the cuts next to its bounds leave survivors only there,
// and +Inf leaves none.
func TestHeadBlockMaskMatchesRows(t *testing.T) {
	const blocks = 5
	for _, body := range kernelBodies() {
		t.Run(body, func(t *testing.T) {
			forceBody(t, body)
			rng := rand.New(rand.NewSource(25))
			tails := make([]float64, blocks*HeadBlockRows)
			var lastOnly, none int
			for _, e := range []int64{1, 100, 127} {
				for _, w := range []int{1, 2, 9, 15, 16, 17, 18, 21, 31, 32, 33, 64} {
					o := e + 1
					draws := []func() int32{
						func() int32 { return int32(rng.Int63n(2*o+1) - o) },
						func() int32 { return int32(-o) },
						func() int32 { return int32(o - 1) },
						func() int32 { return int32(o) },
						func() int32 { return []int32{int32(-o), int32(o)}[rng.Intn(2)] },
					}
					for _, next := range draws {
						factor := rng.Float64() / float64(e*e)
						for j := range tails {
							tails[j] = rng.Float64()
							if j >= (blocks-1)*HeadBlockRows {
								// Above any bound of the blocks before: IU·factor ≤ w·(o+1)²/e².
								tails[j] += 8 * float64(w) * float64(o+1) * float64(o+1) / float64(e*e)
							}
						}
						c := newHeadBlockCase(t, o, w, next, tails, factor, 0.5+rng.Float64())
						c.checkCuts(t)
						last := blocks * HeadBlockRows
						if c.check(t, HeadBlockRows, len(c.bounds), c.bounds[last+3]) == last {
							lastOnly++
						}
						if c.check(t, HeadBlockRows, len(c.bounds), math.Inf(1)) == len(c.bounds) {
							none++
						}
					}
				}
			}
			if lastOnly == 0 || lastOnly != none {
				t.Fatalf("%d runs stopped at their last block and %d found no survivor: both must be every case", lastOnly, none)
			}
		})
	}
}

// FuzzHeadBlock drives the same differential with fuzzer-chosen shapes,
// floors, scale factors and cuts over runs of three blocks: the dispatched
// body (the assembly where there is one), the plain-Go body and the int64
// row-by-row evaluation agree on where the run stops, on all 16 mask bits
// and on all 16 IU lanes. Shapes NewHeadLayout refuses — o = e+1 > 128, or
// w·(o+1) > 32767, which w reaches at o = 30 — are skipped (the committed
// corpus holds o = 101, 127, 128, 129 and both sides of that product).
func FuzzHeadBlock(f *testing.F) {
	f.Add(uint16(100), uint16(18), uint8(0), uint8(0), []byte{0, 255, 7, 9, 200, 1})
	f.Add(uint16(127), uint16(254), uint8(3), uint8(1), []byte{255, 255, 255, 255})
	f.Add(uint16(127), uint16(17), uint8(1), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint16(1), uint16(64), uint8(2), uint8(0), []byte{0, 0, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, e, w uint16, factorSel, tailSel uint8, raw []byte) {
		o := int64(e) + 1
		if _, ok := NewHeadLayout(o, int(w)); e == 0 || !ok || len(raw) == 0 {
			return
		}
		at := 0
		next := func() int32 {
			sel, hi, lo := raw[at%len(raw)], raw[(at+1)%len(raw)], raw[(at+2)%len(raw)]
			at += 3
			switch sel % 8 {
			case 0:
				return int32(-o)
			case 1:
				return int32(o - 1)
			case 2:
				return int32(o)
			}
			return int32(int64(uint16(hi)<<8|uint16(lo))%(2*o+1) - o)
		}
		factor := []float64{0, 5e-324, 1e300, 1, 1 / float64(o*o)}[int(factorSel)%5]
		tails := make([]float64, 3*HeadBlockRows)
		for j := range tails {
			switch (int(tailSel) + j) % 4 {
			case 1:
				tails[j] = math.Inf(1)
			case 2:
				tails[j] = float64(raw[j%len(raw)]) / 16
			case 3:
				tails[j] = float64(raw[j/HeadBlockRows%len(raw)]) // one value to a block
			}
		}
		qTail := float64(raw[0]) / 64
		newHeadBlockCase(t, o, int(w), next, tails, factor, qTail).checkCuts(t)
	})
}

// BenchmarkHeadMask is the sizing of the blocked scan's kernel: ns per row
// and bytes streamed per row of whole scans by BlockRun as scanBlocked
// drives it — runs of at most 64 blocks, the next one starting behind the
// block that stopped the last — per body, at the pair counts w = 13…22
// give, at the paper's e = 100 (o = 101), over a catalog resident in L2
// (n = 10⁴: the compute-bound figure, lib-skewed's 12k-row scans) and one
// that streams from memory (n = 10⁵: the bandwidth-bound one, lib-flat).
// The cut is a percentile of the bound: no row survives, 0.6 % and 2 % do as
// in a real scan, or all of them — the first blocks of every query, whose
// heap is still filling, where every block ends its run and a run costs what
// one call per block did.
//
//	go test ./internal/vec -run '^$' -bench HeadMask -count 6
func BenchmarkHeadMask(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, pairs := range []int{7, 11} {
			benchmarkHeadMask(b, n, pairs)
		}
	}
}

func benchmarkHeadMask(b *testing.B, n, pairs int) {
	const o, od = 101, 101.0
	rng := rand.New(rand.NewSource(19))
	w := 2 * pairs
	l := mustHeadLayout(b, o, w)
	tab := l.NewTable(n)
	tails := make([]float64, n)
	f, g := make([]int32, w), make([]int32, w)
	draw := func(v []int32) {
		for s := range v {
			v[s] = int32(math.Floor(math.Max(-od, math.Min(od-1, rng.NormFloat64()*od/3))))
		}
	}
	h := tab.NewTest(tails)
	draw(g)
	const factor, qTail = 1 / (od * od), 0.5
	h.SetQuery(int32(setFloors(&h, g)), factor, qTail)
	bounds := make([]float64, n)
	for i := range bounds {
		draw(f)
		tails[i] = rng.Float64()
		tab.PackRow(i, f)
		bounds[i] = float64(h.RowIU(i))*factor + qTail*tails[i]
	}
	sort.Float64s(bounds)
	for _, c := range []struct {
		survive string
		cut     float64
	}{{"0", math.Inf(1)}, {"0.6%", bounds[n*994/1000]}, {"2%", bounds[n*98/100]}, {"100%", math.Inf(-1)}} {
		for _, body := range kernelBodies() {
			b.Run(fmt.Sprintf("n=%d/P=%d/survive=%s/%s", n, pairs, c.survive, body), func(b *testing.B) {
				forceBody(b, body)
				const runRows = 64 * HeadBlockRows
				var iu [HeadBlockRows]int32
				var sum uint32
				for r := 0; r < b.N; r++ {
					for row := 0; row < n; {
						end := min(row+runRows, n)
						at, pruned := h.BlockRun(row, end, c.cut, &iu)
						sum += pruned + uint32(iu[0])
						if row = at; at < end {
							row += HeadBlockRows
						}
					}
				}
				sinkMask = sum
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
				b.ReportMetric(float64(l.RowBytes()), "B/row")
			})
		}
	}
}

var sinkMask uint32
