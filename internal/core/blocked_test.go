package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fexipro/internal/data"
	"fexipro/internal/engine"
	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/snap"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// seedFn pre-loads a collector before a scan; nil leaves it empty.
type seedFn func(c *topk.Collector)

// seedAt fills a k-collector with placeholder results (IDs no row has)
// at score t, so the scan starts with a full heap and threshold t.
func seedAt(k int, t float64) seedFn {
	return func(c *topk.Collector) {
		for j := 0; j < k; j++ {
			c.Push(-1-j, t)
		}
	}
}

// ForceKernel makes vec's kernels — scanBlocked's run kernel, the tail
// bound's dot product, and the build's Gram and V₁ transform — run body
// until tb ends, and skips tb, saying why, when the processor has no such
// body: how the scan battery and the build identity run once per body.
func ForceKernel(tb testing.TB, body vec.Body) {
	if !vec.Supported(body) {
		tb.Skipf("the %s kernel body needs instructions this processor lacks", body)
	}
	was := vec.SetBody(body)
	tb.Cleanup(func() { vec.SetBody(was) })
}

// KernelBodies returns the vec kernel bodies this processor runs, the
// selected one first.
func KernelBodies() []vec.Body {
	run := []vec.Body{vec.Selected()}
	for _, b := range []vec.Body{vec.AVX512VNNI, vec.AVX2, vec.Portable} {
		if vec.Supported(b) && b != run[0] {
			run = append(run, b)
		}
	}
	return run
}

// sameScan runs the blocked loop and its per-item reference over rows
// [lo, hi) of idx from identically seeded collectors and fails unless
// results and every search.Stats field agree. It returns those stats.
func sameScan(t testing.TB, idx *Index, qs *queryState, lo, hi, k int, seed seedFn, shB, shP *search.SharedThreshold, what string) search.Stats {
	t.Helper()
	if !qs.headFirst {
		t.Fatalf("%s: scanRange does not select the blocked scan on this index", what)
	}
	cB, cP := topk.New(k), topk.New(k)
	if seed != nil {
		seed(cB)
		seed(cP)
	}
	return sameInto(t, idx, qs, lo, hi, cB, cP, shB, shP, fmt.Sprintf("%s k=%d", what, k))
}

// sameResults compares IDs and score bits, so NaN scores compare equal.
func sameResults(a, b []topk.Result) bool {
	return slices.EqualFunc(a, b, func(x, y topk.Result) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// sameScanAbove is sameScan's fixed-threshold case: the two loops into
// topk.NewAbove(thr) collectors, which never fill — no offer raises the
// threshold, no block restarts, nothing is published.
func sameScanAbove(t testing.TB, idx *Index, qs *queryState, lo, hi int, thr float64, shB, shP *search.SharedThreshold, what string) search.Stats {
	t.Helper()
	return sameInto(t, idx, qs, lo, hi, topk.NewAbove(thr), topk.NewAbove(thr), shB, shP, fmt.Sprintf("%s above %v", what, thr))
}

// sameInto scans rows [lo, hi) with scanRange into cB and with scanPerItem
// into cP, two collectors in the same state.
func sameInto(t testing.TB, idx *Index, qs *queryState, lo, hi int, cB, cP *topk.Collector, shB, shP *search.SharedThreshold, what string) search.Stats {
	t.Helper()
	ctx := context.Background()
	var stB, stP search.Stats
	if err := idx.scanRange(ctx, qs, lo, hi, cB, shB, &stB); err != nil {
		t.Fatal(err)
	}
	if err := idx.scanPerItem(ctx, qs, lo, hi, cP, shP, &stP); err != nil {
		t.Fatal(err)
	}
	if stB != stP || !sameResults(cB.Results(), cP.Results()) {
		t.Fatalf("%s rows [%d,%d):\nscanRange %+v %v\nper-item  %+v %v",
			what, lo, hi, stB, cB.Results(), stP, cP.Results())
	}
	return stB
}

// TestBlockedScanMatchesPerItem: on the MovieLens and Netflix shapes at
// n = 2·10⁴ the survivor-driven blocked loop must return the same
// results AND the same value in every search.Stats field as the per-item
// loop, query by query — over ranges whose ends are not multiples of the
// block size, k from 1 to beyond n (a collector that never fills: every
// row survives every block), collectors that start full so the first
// offers raise the threshold in the middle of a block, S ∈ {1,2,3,7}
// shards scanned in order against one shared threshold (what a
// one-worker engine does) — the MovieLens shape at the paper's E = 100,
// the Netflix shape at E = 100 and at the largest, E = 127.
func TestBlockedScanMatchesPerItem(t *testing.T) {
	const n = 20000
	beyondHi := 0
	for _, tc := range []struct {
		p data.Profile
		e float64
	}{{data.MovieLens(), 100}, {data.Netflix(), 100}, {data.Netflix(), 127}} {
		p := tc.p
		ds := data.Generate(p, n, 12, 50)
		opts := Options{SVD: true, Int: true, Reduction: true, E: tc.e}
		idx, err := NewIndex(ds.Items, opts)
		if err != nil {
			t.Fatal(err)
		}
		qs := idx.newQueryState()
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			what := fmt.Sprintf("%s %+v query %d", p.Name, opts, qi)
			idx.prepareQuery(ds.Queries.Row(qi), qs)
			if !qs.headFirst {
				t.Fatal("F-SIR query state does not select the blocked scan")
			}
			for _, k := range []int{1, 10, 50} {
				for _, r := range [][2]int{{0, n}, {3, n - 5}, {17, 10007}, {4999, 5001}, {31, 48}} {
					sameScan(t, idx, qs, r[0], r[1], k, nil, nil, nil, what)
				}
			}
			if qi < 2 {
				sameScan(t, idx, qs, 0, n, n+3, nil, nil, nil, what)
				sameScan(t, idx, qs, 5, 1000, n+3, nil, nil, nil, what)
			}
			// A heap that is full from the start, at the score of the
			// 40th-best row: the rows that beat it are offered, and
			// raise the threshold, wherever in a block they sit.
			top := topk.New(40)
			var st search.Stats
			if err := idx.scanPerItem(context.Background(), qs, 0, n, top, nil, &st); err != nil {
				t.Fatal(err)
			}
			for _, lo := range []int{0, 1, 7, 15} {
				sameScan(t, idx, qs, lo, n, 10, seedAt(10, top.Threshold()), nil, nil, what+" seeded")
			}
			// Above-t is the same two loops at a threshold that never
			// moves: the 40th-best score itself (a row ties it), the best
			// score, and the values where nothing and everything is cut.
			best := top.Results()[0].Score
			for _, thr := range []float64{top.Threshold(), best, math.Nextafter(best, math.Inf(1)), 0} {
				for _, r := range [][2]int{{0, n}, {3, n - 5}, {17, 10007}, {31, 48}} {
					sameScanAbove(t, idx, qs, r[0], r[1], thr, nil, nil, what)
				}
			}
			beyondHi += survivorsBeyondHi(t, idx, qs, top.Threshold(), what)
			if qi < 2 {
				for _, thr := range []float64{math.Inf(-1), math.Inf(1), math.NaN()} {
					sameScanAbove(t, idx, qs, 0, n, thr, nil, nil, what)
					sameScanAbove(t, idx, qs, 5, 1000, thr, nil, nil, what)
				}
			}
			for _, shards := range []int{1, 2, 3, 7} {
				part := engine.NewPartition(n, shards)
				var shB, shP, abB, abP search.SharedThreshold
				for s := 0; s < shards; s++ {
					lo, hi := part.Range(s)
					sameScan(t, idx, qs, lo, hi, 10, nil, &shB, &shP, fmt.Sprintf("%s S=%d shard %d", what, shards, s))
					sameScanAbove(t, idx, qs, lo, hi, top.Threshold(), &abB, &abP, fmt.Sprintf("%s S=%d shard %d", what, shards, s))
				}
				if v := abB.Load(); !math.IsInf(v, -1) {
					t.Fatalf("%s S=%d: an above-t scan published %v to the shared threshold", what, shards, v)
				}
			}
		}
	}
	if beyondHi == 0 {
		t.Fatal("no range ended inside a block whose only head-test survivors lie at rows ≥ hi")
	}
}

// survivorsBeyondHi looks, among the blocks every row of which passes the
// length test at thr, for ones whose first rows the head test prunes and
// whose survivors all come after them, and ends a range between the two:
// the kernel stops its run at a block in which scanBlocked has nothing
// left to decide. Both ends of the range are mid-block, several blocks —
// one run — apart. It returns the number of ranges it ran.
func survivorsBeyondHi(t testing.TB, idx *Index, qs *queryState, thr float64, what string) (ran int) {
	cut := thr - pruneMargin(idx.opts.PruneSlack, thr)
	for b := 10 * blockRows; b+blockRows <= idx.n && ran < 3; b += blockRows {
		if qs.qNorm*idx.norms[b+blockRows-1] < thr {
			break
		}
		first := blockRows // the block's first survivor
		for j := blockRows - 1; j >= 0; j-- {
			if hb := idx.headBound(qs, b+j, qs.head.RowIU(b+j)); !(hb.bHead+hb.ub1 < cut) {
				first = j
			}
		}
		if first == 0 || first == blockRows {
			continue
		}
		lo, hi := b-7*blockRows-5, b+first
		sameScanAbove(t, idx, qs, lo, hi, thr, nil, nil, what+" survivors beyond hi")
		sameScan(t, idx, qs, lo, hi, 10, seedAt(10, thr), nil, nil, what+" survivors beyond hi, seeded")
		ran++
	}
	return ran
}

// TestBlockedScanLengthBreakPositions: with the threshold pinned above
// every score, the sorted-scan break falls on one known row; sliding the
// range start over 16 consecutive rows puts it on each position of a
// block, and at every one the blocked loop must stop where the per-item
// loop does, with the same counts.
func TestBlockedScanLengthBreakPositions(t *testing.T) {
	const n, k = 4000, 5
	ds := data.Generate(data.MovieLens(), n, 3, 50)
	idx, err := NewIndex(ds.Items, Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := idx.newQueryState()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		idx.prepareQuery(ds.Queries.Row(qi), qs)
		for _, breakRow := range []int{40, 41, 1000} {
			// No row's score can reach the length bound of row breakRow−1
			// scaled up, so the threshold never moves; rows from breakRow
			// on fail the length test unless their norm ties that row's.
			pin := qs.qNorm * idx.norms[breakRow-1]
			first := breakRow
			for first < n && !(qs.qNorm*idx.norms[first] < pin) {
				first++
			}
			seen := map[int]bool{}
			for lo := first - 31; lo < first-15; lo++ {
				st := sameScan(t, idx, qs, lo, n, k, seedAt(k, pin), nil, nil, fmt.Sprintf("query %d pinned at row %d", qi, breakRow))
				if first < n && st.PrunedByLength != n-first {
					t.Fatalf("query %d lo %d: %d rows pruned by length, want the %d from row %d on",
						qi, lo, st.PrunedByLength, n-first, first)
				}
				seen[(first-lo)%blockRows] = true
			}
			if len(seen) != blockRows {
				t.Fatalf("break row %d covered %d of %d block positions", first, len(seen), blockRows)
			}
		}
		// The break in block 0, 1, 2, 3, 5, 9, 17, 33 and 63 of a 64-block
		// run — every depth of the halving length test — and, at one depth,
		// on each of the block's 16 rows. A fixed-threshold collector keeps
		// the break where it was put; a full heap seeded there may raise.
		const base = 10 * blockRows
		for _, blk := range []int{0, 1, 2, 3, 5, 9, 17, 33, 63} {
			for pos := 0; pos < blockRows; pos++ {
				if pos != 7 && blk != 5 {
					continue
				}
				brk := base + blk*blockRows + pos
				if brk == base {
					continue // nothing before the break to pin the threshold at
				}
				pin := qs.qNorm * idx.norms[brk-1]
				if !(qs.qNorm*idx.norms[brk] < pin) {
					t.Fatalf("query %d: rows %d and %d tie in length", qi, brk-1, brk)
				}
				what := fmt.Sprintf("query %d break in block %d of the run, row %d", qi, blk, pos)
				for _, lo := range []int{base, base + 3} {
					if lo >= brk {
						continue
					}
					if st := sameScanAbove(t, idx, qs, lo, n, pin, nil, nil, what); st.Scanned != brk-lo || st.PrunedByLength != n-brk {
						t.Fatalf("%s: scanned %d rows and pruned %d by length from row %d, want the break at row %d", what, st.Scanned, st.PrunedByLength, lo, brk)
					}
					sameScan(t, idx, qs, lo, n, k, seedAt(k, pin), nil, nil, what+" seeded")
				}
			}
		}
	}
}

// smallIntCatalog is an n×d matrix of integers in [−2, 2] drawn from
// rng: exact arithmetic, many equal norms and many equal scores.
func smallIntCatalog(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = float64(rng.Intn(5) - 2)
	}
	return m
}

// TestBlockedScanTies: on small-integer catalogs scores and norms tie
// constantly, and with the whole vector in the head, E ≤ 2 and
// PruneSlack < 0 (margin 0) the head bound is a small integer too and
// often equals the cut exactly — where a non-strict compare in the mask
// kernel shows as a counter mismatch.
func TestBlockedScanTies(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, d = 700, 6
	items := smallIntCatalog(rng, n, d)
	for _, opts := range []Options{
		{Int: true, W: 3},
		{Int: true, W: 3, PruneSlack: -1},
		{Int: true, W: d, PruneSlack: -1},
		{Int: true, W: d, E: 1, PruneSlack: -1},
		{Int: true, W: d, E: 2, PruneSlack: -1},
		{SVD: true, Int: true, Reduction: true, PruneSlack: -1},
	} {
		idx, err := NewIndex(items, opts)
		if err != nil {
			t.Fatal(err)
		}
		qs := idx.newQueryState()
		for trial := 0; trial < 40; trial++ {
			q := smallIntCatalog(rng, 1, d).Data
			idx.prepareQuery(q, qs)
			for _, k := range []int{1, 5, 60} {
				for _, r := range [][2]int{{0, n}, {9, n - 1}, {100, 133}} {
					sameScan(t, idx, qs, r[0], r[1], k, nil, nil, nil, fmt.Sprintf("%+v q=%v", opts, q))
				}
			}
		}
	}
}

// TestBlockedScanWordCounts is the shapes table of the head layout: pair
// counts on both sides of a pair boundary and of the benchmark's shapes,
// E from 1 through the default to the largest there is. On every shape
// the one-row bound equals Theorem 2's IU^ℓ from the unpacked floors,
// scanRange — the blocked loop — agrees with the per-item loop, and the
// block kernel, the one-row bound and the per-item loop's own head test
// decide every row of a block alike for cuts on, next to and far from the
// bound (PruneSlack < 0: the cut is the threshold).
func TestBlockedScanWordCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, d = 1500, 34
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	floors := make([]int32, d)
	for _, e := range []float64{1, 100, 126, 127} {
		for _, w := range []int{1, 2, 9, 15, 16, 17, 18, 21, 31, 32, 33} {
			idx, err := NewIndex(items, Options{Int: true, W: w, E: e, PruneSlack: -1})
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("W=%d E=%v", w, e)
			id := idx.ints
			if id.lay.Pairs() != (w+1)/2 || id.lay.Offset() != int64(e)+1 {
				t.Fatalf("%s: %d pairs at offset %d; want %d at %d", what, id.lay.Pairs(), id.lay.Offset(), (w+1)/2, int64(e)+1)
			}
			qs := idx.newQueryState()
			for trial := 0; trial < 3; trial++ {
				q := make([]float64, d)
				for s := range q {
					q[s] = rng.NormFloat64()
				}
				idx.prepareQuery(q, qs)
				for i := trial; i < n; i += 7 {
					iu := int64(w) + id.row(i, w, floors)
					for s, g := range qs.head.Floors()[:w] {
						iu += int64(floors[s])*int64(g) + abs64(int64(g))
					}
					if got, want := idx.headBound(qs, i, qs.head.RowIU(i)).bHead, float64(iu)*qs.headFactor; got != want {
						t.Fatalf("%s row %d: one-row head bound %v, from floors %v", what, i, got, want)
					}
				}
				for _, k := range []int{1, 10} {
					sameScan(t, idx, qs, 0, n, k, nil, nil, nil, what)
					sameScan(t, idx, qs, 5, n-3, k, nil, nil, nil, what)
				}
				for b := 0; b+blockRows <= n; b += 5 * blockRows {
					on := idx.headBound(qs, b+trial, qs.head.RowIU(b+trial))
					for _, cut := range []float64{
						on.bHead + on.ub1, math.Nextafter(on.bHead+on.ub1, math.Inf(1)), math.Nextafter(on.bHead+on.ub1, math.Inf(-1)),
						on.bHead + on.ub1 + 1, on.bHead + on.ub1 - 1, math.Inf(-1), math.Inf(1), math.NaN(),
					} {
						var got vec.Survivors
						_, alive := qs.head.Collect(b, b+blockRows, cut, &got)
						for j, k := 0, 0; j < blockRows; j++ {
							hb := idx.headBound(qs, b+j, qs.head.RowIU(b+j))
							byKernel := k == alive || int(got.Rows[k]) != b+j
							if !byKernel {
								if fromLane := float64(float64(got.IU[k]) * qs.headFactor); fromLane != hb.bHead {
									t.Fatalf("%s row %d cut %v: head bound %v from the kernel's IU, %v from the one-row IU", what, b+j, cut, fromLane, hb.bHead)
								}
								k++
							}
							byRow := hb.bHead+hb.ub1 < cut
							byLoop := byRow // the margin of an infinite threshold is NaN: candidate is not asked
							if !math.IsInf(cut, 0) {
								var st search.Stats
								idx.candidate(b+j, qs, cut, 0, &st)
								byLoop = st.PrunedByIntHead == 1
							}
							if byKernel != byRow || byRow != byLoop {
								t.Fatalf("%s row %d cut %v (bound %v): pruned by the kernel %v, by the one-row bound %v, by the per-item loop %v",
									what, b+j, cut, hb.bHead+hb.ub1, byKernel, byRow, byLoop)
							}
						}
					}
				}
			}
		}
	}
}

// raisePositions replays the per-item scan of [lo, hi) one row at a time
// and marks in seen the position within its block of every row whose
// offer raised the threshold. It returns the last such row, or −1.
func raisePositions(t testing.TB, idx *Index, qs *queryState, lo, hi, k int, seed seedFn, seen *[blockRows]bool) (last int) {
	last = -1
	c := topk.New(k)
	if seed != nil {
		seed(c)
	}
	var st search.Stats
	for i := lo; i < hi; i++ {
		before, full := c.Threshold(), c.Len() == c.K()
		if err := idx.scanPerItem(context.Background(), qs, i, i+1, c, nil, &st); err != nil {
			t.Fatal(err)
		}
		if c.Len() == c.K() && (!full || c.Threshold() != before) {
			seen[i%blockRows] = true
			last = i
		}
	}
	return last
}

// TestBlockedScanUnalignedRanges: the blocked loop walks blocks on global
// multiples of 16, so a range may begin and end anywhere inside one. For
// catalogs that are less than a block, exactly one, one and a row, and
// many blocks with and without a partial last one, and every (lo mod 16,
// hi mod 16), scanRange equals scanPerItem result for result and counter
// for counter — from empty collectors, from full ones whose first offers
// raise the threshold (on every position of a block, checked — position 15
// starts the next run on a block boundary — and on the last row of a
// range), with the length break inside the range's first, partial block,
// and for the shard
// ranges of S ∈ {1, 2, 3, 7} through Sharded.Scan with no shared threshold.
func TestBlockedScanUnalignedRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const d, k = 8, 3
	var raised [blockRows]bool
	raisedLast := 0
	for _, n := range []int{1, 15, 16, 17, 1500, 1501} {
		items := normalMatrix(rng, n, d)
		idx, err := NewIndex(items, Options{SVD: true, Int: true, Reduction: true})
		if err != nil {
			t.Fatal(err)
		}
		qs := idx.newQueryState()
		var los, his []int
		for r := 0; r <= blockRows; r++ {
			los = append(los, r, n/2/blockRows*blockRows+r)
			his = append(his, n-r, n/2/blockRows*blockRows+2*blockRows+r)
		}
		for qi := 0; qi < 3; qi++ {
			idx.prepareQuery(normalMatrix(rng, 1, d).Data, qs)
			what := fmt.Sprintf("n=%d query %d", n, qi)
			// The score of the 200th-best row: seeded there, a scan's first
			// offers raise the threshold wherever they sit.
			top := topk.New(min(200, n))
			var st search.Stats
			if err := idx.scanPerItem(context.Background(), qs, 0, n, top, nil, &st); err != nil {
				t.Fatal(err)
			}
			seeded := seedAt(k, top.Threshold())
			for _, lo := range los {
				for _, hi := range his {
					if lo < 0 || hi > n || lo > hi {
						continue
					}
					sameScan(t, idx, qs, lo, hi, k, nil, nil, nil, what)
					sameScan(t, idx, qs, lo, hi, k, seeded, nil, nil, what+" seeded")
					if hi-lo > 2*blockRows {
						// Ending the range behind a raising row makes its offer
						// the last thing the scan does.
						if last := raisePositions(t, idx, qs, lo, min(hi, lo+20*blockRows), k, seeded, &raised); last >= 0 {
							sameScan(t, idx, qs, lo, last+1, k, seeded, nil, nil, what+" seeded, raised on the last row")
							raisedLast++
						}
					}
				}
			}
			// The length break on each row of a first block entered at row 3.
			for lo := 3; lo+blockRows <= n && lo < 100; lo += 5 * blockRows {
				for brk := lo + 1; brk < lo+blockRows-3; brk++ {
					pin := qs.qNorm * idx.norms[brk-1]
					if st := sameScan(t, idx, qs, lo, n, k, seedAt(k, pin), nil, nil, what+" pinned"); st.PrunedByLength == 0 || st.Scanned >= blockRows-3 {
						t.Fatalf("%s lo %d: pinned at row %d, scanned %d rows and pruned %d by length: the break is not inside the first block",
							what, lo, brk, st.Scanned, st.PrunedByLength)
					}
				}
			}
			for _, shards := range []int{1, 2, 3, 7} {
				sh := NewSharded(idx, shards)
				for s := 0; s < sh.Shards(); s++ {
					lo, hi := sh.part.Range(s)
					c, cP := topk.New(k), topk.New(k)
					var stP search.Stats
					st, err := sh.Scan(context.Background(), qs, s, c, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := idx.scanPerItem(context.Background(), qs, lo, hi, cP, nil, &stP); err != nil {
						t.Fatal(err)
					}
					if st != stP || !reflect.DeepEqual(c.Results(), cP.Results()) {
						t.Fatalf("%s S=%d shard %d rows [%d,%d):\nSharded.Scan %+v %v\nper-item     %+v %v",
							what, shards, s, lo, hi, st, c.Results(), stP, cP.Results())
					}
				}
			}
		}
	}
	for pos, ok := range raised {
		if !ok {
			t.Fatalf("no raising offer fell on position %d of a block", pos)
		}
	}
	if raisedLast == 0 {
		t.Fatal("no range ended behind a raising offer")
	}
}

// TestNonFiniteQueriesScanAlike: a query with NaN, ±Inf or coordinates so
// large that e·v overflows has no meaningful bounds, but it must come back
// without a panic and the blocked loop must still decide what the per-item
// loop decides — its floors are clamped into [−o, o−1], so the kernel's
// lanes cannot wrap.
func TestNonFiniteQueriesScanAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n, d = 200, 9
	items := normalMatrix(rng, n, d)
	for _, opts := range []Options{{Int: true, W: 4}, {Int: true, W: 4, E: 127}, {SVD: true, Int: true, Reduction: true}} {
		idx, err := NewIndex(items, opts)
		if err != nil {
			t.Fatal(err)
		}
		qs := idx.newQueryState()
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 5e-324} {
			for _, at := range [][]int{{0}, {d - 1}, {1, 5}, {0, 1, 2, 3, 4, 5, 6, 7, 8}} {
				q := normalMatrix(rng, 1, d).Data
				for _, s := range at {
					q[s] = bad
				}
				idx.prepareQuery(q, qs)
				for _, f := range append(append([]int16{}, qs.head.Floors()...), qs.qTail...) {
					if o := idx.ints.lay.Offset(); int64(f) < -o || int64(f) >= o {
						t.Fatalf("%+v q=%v: query floor %d outside [−%d, %d)", opts, q, f, o, o)
					}
				}
				for _, r := range [][2]int{{0, n}, {3, n - 5}, {17, 18}} {
					sameScan(t, idx, qs, r[0], r[1], 5, nil, nil, nil, fmt.Sprintf("%+v q=%v", opts, q))
					sameScan(t, idx, qs, r[0], r[1], 5, seedAt(5, 0.5), nil, nil, fmt.Sprintf("%+v q=%v seeded", opts, q))
				}
			}
		}
	}
}

// BlockedScanSeeds returns FuzzBlockedScan's seed inputs.
func BlockedScanSeeds() [][]byte {
	// d=1, k=2, q = (1), rows [0, 40): five rows at −4 fill the heap,
	// the rows at 3 that follow them in norm order raise the threshold
	// from positions 5–7 of block 0, and the rows at −2 after those pass
	// the head test under the old threshold only.
	raise := []byte{0, 1, 0, 40, 5}
	for i := 0; i < 40; i++ {
		switch {
		case i < 5:
			raise = append(raise, 0)
		case i < 8:
			raise = append(raise, 7)
		default:
			raise = append(raise, 2)
		}
	}
	// d=2, k=1, rows [3, 60): one long row then short ones — the length
	// break falls inside the first block, not on its edge.
	brk := []byte{1, 0, 3, 60, 8, 8}
	brk = append(brk, 8, 8)
	for i := 1; i < 60; i++ {
		brk = append(brk, byte(4+i%2), 4)
	}
	return [][]byte{raise, brk, make([]byte, 64)}
}

// FuzzBlockedScan builds a small-integer catalog (d ≤ 6, n ≤ 200, so
// ties are the norm), a query, k and a row range from the input and
// checks the blocked loop against the per-item one, results and every
// counter, from an empty collector, from one that starts full and into
// fixed-threshold (above-t) ones, under every kernel body the processor
// runs.
func FuzzBlockedScan(f *testing.F) {
	for _, seed := range BlockedScanSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, body := range KernelBodies() {
			ForceKernel(t, body)
			CheckBlockedScanInput(t, in)
		}
	})
}

// CheckBlockedScanInput is FuzzBlockedScan's property on one input, under
// whichever kernel body is installed.
func CheckBlockedScanInput(t *testing.T, in []byte) {
	if len(in) < 4 {
		return
	}
	d, k := int(in[0]%6)+1, int(in[1]%8)+1
	loRaw, hiRaw := int(in[2]), int(in[3])
	in = in[4:]
	if len(in) < 2*d {
		return
	}
	q := make([]float64, d)
	for s := range q {
		q[s] = float64(int(in[s]%9) - 4)
	}
	in = in[d:]
	n := min(len(in)/d, 200)
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = float64(int(in[i]%9) - 4)
	}
	lo, hi := loRaw%n, hiRaw%(n+1)
	if lo > hi {
		lo, hi = hi, lo
	}
	for _, opts := range []Options{
		{Int: true, W: (d + 1) / 2, PruneSlack: -1},
		{SVD: true, Int: true, Reduction: true},
	} {
		idx, err := NewIndex(items, opts)
		if err != nil {
			t.Fatal(err)
		}
		qs := idx.newQueryState()
		idx.prepareQuery(q, qs)
		what := fmt.Sprintf("%+v d=%d n=%d q=%v", opts, d, n, q)
		sameScan(t, idx, qs, lo, hi, k, nil, nil, nil, what)
		sameScan(t, idx, qs, 0, n, k, nil, nil, nil, what)
		sameScan(t, idx, qs, lo, hi, k, seedAt(k, float64(int(loRaw%9)-4)), nil, nil, what+" seeded")
		// The fixed-threshold collector at a value the small-integer
		// products tie, and at a tenth below one.
		thr := float64(int(hiRaw%13) - 6)
		sameScanAbove(t, idx, qs, lo, hi, thr, nil, nil, what)
		sameScanAbove(t, idx, qs, 0, n, thr-0.1, nil, nil, what)
	}
}

// TestBlockedScanFaultHookPerItem: a scan fault hook counts each poll of
// the scan as one plan item and leaves the loop alone. Under a fault-free
// hook scanRange returns exactly what it returns without one; a
// CancelAtItem at the last of those polls stops the scan there, with the
// partial results and counters of a scan over just the rows it had decided.
func TestBlockedScanFaultHookPerItem(t *testing.T) {
	ds := data.Generate(data.Netflix(), 4000, 4, 50)
	idx, err := NewIndex(ds.Items, Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	const lo, k = 5, 10
	qs := idx.newQueryState()
	scan := func(ctx context.Context, hi int) (search.Stats, []topk.Result, error) {
		var st search.Stats
		c := topk.New(k)
		err := idx.scanRange(ctx, qs, lo, hi, c, nil, &st)
		return st, c.Results(), err
	}
	partial := 0
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		idx.prepareQuery(ds.Queries.Row(qi), qs)
		want, wantRes, err := scan(context.Background(), idx.n)
		if err != nil {
			t.Fatal(err)
		}
		hook := faults.NewRegistry(1).Enable(faults.SiteScan, faults.Plan{})
		got, gotRes, err := scan(hook.Context(context.Background()), idx.n)
		if err != nil {
			t.Fatalf("query %d under a fault-free hook: %v", qi, err)
		}
		if got != want || !sameResults(gotRes, wantRes) {
			t.Fatalf("query %d: the hook changed the scan:\n hooked %+v %v\nplain  %+v %v", qi, got, gotRes, want, wantRes)
		}
		polls := hook.Counts().Items
		if polls < 1 {
			t.Fatalf("query %d: the hook saw no poll", qi)
		}

		hook = faults.NewRegistry(1).Enable(faults.SiteScan, faults.Plan{CancelAtItem: int(polls)})
		got, gotRes, err = scan(hook.Context(context.Background()), idx.n)
		if !errors.Is(err, search.ErrDeadline) {
			t.Fatalf("query %d cancelled at poll %d: err = %v, want ErrDeadline", qi, polls, err)
		}
		if n := hook.Counts().Items; n != polls {
			t.Fatalf("query %d cancelled at poll %d: the hook saw %d polls", qi, polls, n)
		}
		prefix, prefixRes, err := scan(context.Background(), lo+got.Scanned)
		if err != nil {
			t.Fatal(err)
		}
		if got != prefix || !sameResults(gotRes, prefixRes) {
			t.Fatalf("query %d cancelled at poll %d:\npartial %+v %v\nprefix  %+v %v over rows [%d,%d)",
				qi, polls, got, gotRes, prefix, prefixRes, lo, lo+got.Scanned)
		}
		if got.Scanned > 0 {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no query was cancelled after it had scanned a row")
	}
}

// TestBlockedScanCancellation: the blocked loop polls its context on
// entry and then at least once per search.CheckStride decided rows (one
// block of slack), however the survivors cut its runs, and a fault that
// cancels the context at poll N (faults.Hook.Context) stops the scan at
// that poll. What comes back is exactly scanBlocked's result and counters
// over the rows decided before it — every score a true product.
func TestBlockedScanCancellation(t *testing.T) {
	const n, k, lo = 20000, 10, 5
	ds := data.Generate(data.Netflix(), n, 3, 50)
	idx, err := NewIndex(ds.Items, Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := idx.newQueryState()
	scan := func(plan faults.Plan) (*faults.Hook, search.Stats, []topk.Result, error) {
		hook := faults.NewRegistry(1).Enable(faults.SiteScan, plan)
		var st search.Stats
		c := topk.New(k)
		err := idx.scanRange(hook.Context(context.Background()), qs, lo, n, c, nil, &st)
		return hook, st, c.Results(), err
	}
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		idx.prepareQuery(ds.Queries.Row(qi), qs)
		if !qs.headFirst {
			t.Fatal("scanRange does not select the blocked scan on this index")
		}
		whole, _, _, err := scan(faults.Plan{})
		if err != nil {
			t.Fatal(err)
		}
		// decided[p-1] is how many rows the scan had decided at its p-th
		// poll: what the scan cancelled there reports as scanned. The last
		// poll is the per-item loop's, entered at the length break.
		decided := make([]int, whole.Counts().Items)
		for at := 1; at <= len(decided); at++ {
			hook, st, got, err := scan(faults.Plan{CancelAtItem: at})
			if !errors.Is(err, search.ErrDeadline) {
				t.Fatalf("query %d cancelled at poll %d: err = %v, want ErrDeadline", qi, at, err)
			}
			if polls := hook.Counts().Items; polls != int64(at) || st.PrunedByLength != 0 {
				t.Fatalf("query %d cancelled at poll %d: the scan went on to poll %d, %+v", qi, at, polls, st)
			}
			decided[at-1] = st.Scanned
			var stB search.Stats
			cB := topk.New(k)
			if err := idx.scanBlocked(context.Background(), qs, lo, lo+st.Scanned, cB, nil, &stB); err != nil {
				t.Fatal(err)
			}
			if st != stB || !sameResults(got, cB.Results()) {
				t.Fatalf("query %d cancelled at poll %d:\npartial %+v %v\nblocked %+v %v over rows [%d,%d)", qi, at, st, got, stB, cB.Results(), lo, lo+st.Scanned)
			}
			row := make(map[int]int, st.Scanned)
			for i := lo; i < lo+st.Scanned; i++ {
				row[idx.perm[i]] = i
			}
			for _, r := range got {
				i, ok := row[r.ID]
				if want := vec.Dot(qs.qbar, idx.bar.Row(i)); !ok || math.Abs(r.Score-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("query %d cancelled at poll %d: result %+v, row %d (decided: %v) has product %v", qi, at, r, i, ok, want)
				}
			}
		}
		if len(decided) < 6 || decided[0] != 0 {
			t.Fatalf("query %d: polled at %v decided rows, want the first poll before any row and at least 6", qi, decided)
		}
		for p := 1; p < len(decided); p++ {
			if gap := decided[p] - decided[p-1]; gap < 0 || gap > search.CheckStride+blockRows {
				t.Fatalf("query %d: %d rows decided between polls %d and %d (%v)", qi, gap, p, p+1, decided)
			}
		}
	}
}

// TestPackedHeadMatchesFloors: on a built index the head bound of every
// row, from the floor pairs in their blocks, equals Theorem 2's IU^ℓ
// computed by vec.DotInt64 on the unpacked floors — from E = 100 to the
// largest, 127, and for items whose head coordinates sit at ±max, where
// e·v/max may floor to −e−1: −128 at E = 127, the one int8 no e·v/max
// reaches otherwise. An E past 127 is refused by name.
func TestPackedHeadMatchesFloors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, d = 300, 24
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	// A max whose scaled value e·(−max)/max rounds below −e at both E.
	var pin float64
	for pin = 10; math.Floor(100*-pin/pin) != -101 || math.Floor(127*-pin/pin) != -128; pin = 10 + rng.Float64() {
	}
	for s := 0; s < d; s++ {
		items.Set(s, s, pin)
		items.Set(d+s, s, -pin)
	}
	for _, e := range []float64{128, 1000, 32766} {
		if _, err := NewIndex(items, Options{Int: true, W: 7, E: e}); !errors.Is(err, ErrIntDomain) || !strings.Contains(err.Error(), "Options.E") {
			t.Fatalf("E = %v: err = %v, want ErrIntDomain naming Options.E", e, err)
		}
	}
	for _, opts := range []Options{
		{Int: true, W: 7},
		{Int: true, W: 7, E: 127},
		{Int: true, W: d},
		{Int: true, W: d, E: 127},
		{SVD: true, Int: true, Reduction: true},
	} {
		idx, err := NewIndex(items, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		id, w := idx.ints, idx.w
		qs := idx.newQueryState()
		floors, qFloors := make([]int32, d), make([]int32, w)
		sawLowest := false
		for trial := 0; trial < 6; trial++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			if trial == 0 {
				q[0] = -pin // a query floor at the low end of the range
			}
			idx.prepareQuery(q, qs)
			var qSumAbs int64
			for s := range qFloors {
				qFloors[s] = int32(qs.head.Floors()[s])
				qSumAbs += abs64(int64(qFloors[s]))
			}
			for i := 0; i < n; i++ {
				sumAbs := id.row(i, w, floors)
				for _, f := range floors[:w] {
					sawLowest = sawLowest || int64(f) == -id.lay.Offset()
				}
				iu := vec.DotInt64(qFloors, floors[:w]) + qSumAbs + sumAbs + int64(w)
				if got, want := idx.headBound(qs, i, qs.head.RowIU(i)).bHead, float64(iu)*qs.headFactor; got != want {
					t.Fatalf("%+v row %d: head bound %v, from floors %v", opts, i, got, want)
				}
			}
		}
		if !sawLowest && !opts.SVD {
			t.Fatalf("%+v: no head floor reached −(⌈E⌉+1); the pinned rows do not exercise the range end", opts)
		}
	}
}

// TestNewIndexRejectsBadOptions: a non-finite E, Rho, PruneSlack or
// RankTol, or an E outside the integer bound's domain (0, 127], is an
// error, not an index — NaN in particular passes every range test
// withDefaults applies.
func TestNewIndexRejectsBadOptions(t *testing.T) {
	items := vec.NewMatrix(20, 6)
	for i := range items.Data {
		items.Data[i] = float64(i%7) - 3
	}
	for _, e := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if _, err := NewIndex(items, Options{SVD: true, Int: true, E: e}); err == nil {
			t.Fatalf("E = %v accepted", e)
		}
	}
	if _, err := NewIndex(items, Options{SVD: true, E: math.NaN()}); err == nil {
		t.Fatal("E = NaN accepted without the integer bound")
	}
	// TestEBoundary has the edge.
	for _, e := range []float64{0, -1, 10, 127} {
		if _, err := NewIndex(items, Options{SVD: true, Int: true, E: e}); err != nil {
			t.Fatalf("E = %v: %v", e, err)
		}
	}
	for _, e := range []float64{1000, 20000} {
		if _, err := NewIndex(items, Options{SVD: true, Int: true, E: e}); !errors.Is(err, ErrIntDomain) || !strings.Contains(err.Error(), "Options.E") {
			t.Fatalf("E = %v: err = %v, want ErrIntDomain naming Options.E", e, err)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, opts := range map[string]Options{
			"Rho":        {SVD: true, Int: true, Reduction: true, Rho: v},
			"PruneSlack": {SVD: true, Int: true, Reduction: true, PruneSlack: v},
			"RankTol":    {SVD: true, RankTol: v},
		} {
			if _, err := NewIndex(items, opts); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("%s = %v: err = %v, want an error naming the field", name, v, err)
			}
		}
	}
	// Out-of-range finite values keep selecting the defaults.
	for _, opts := range []Options{
		{SVD: true, Int: true, Rho: -3}, {SVD: true, Int: true, Rho: 7},
		{SVD: true, Int: true, PruneSlack: -1}, {SVD: true, RankTol: -1},
	} {
		if _, err := NewIndex(items, opts); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
	}
}

// TestEBoundary: the floors are int8, so E = 127 (o = 128) is the largest
// that builds — exact against the naive scan at every W — and anything
// above is refused by name wherever Options come in: NewIndex,
// NewDynamicIndex, and a snapshot whose dyn.meta carries such an E (an
// older version, whose int16 floors took E up to 32766, could write one).
func TestEBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	const n, d = 300, 6
	items := normalMatrix(rng, n, d)
	for w := 1; w <= d; w++ {
		idx, err := NewIndex(items, Options{SVD: true, Int: true, Reduction: true, E: MaxE, W: w})
		if err != nil {
			t.Fatalf("E = 127, W = %d: %v", w, err)
		}
		if lay := idx.ints.lay; lay.Pairs() != (w+1)/2 || lay.Offset() != 128 {
			t.Fatalf("E = 127, W = %d: %d pairs at offset %d; want %d at 128", w, lay.Pairs(), lay.Offset(), (w+1)/2)
		}
		r := NewRetriever(idx)
		for trial := 0; trial < 10; trial++ {
			q := normalMatrix(rng, 1, d).Data
			got, want := r.Search(q, 5), naiveLive(items, func(int) bool { return false }, q, 5)
			for i := range want {
				if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("E = 127, W = %d: got %v, naive %v", w, got, want)
				}
			}
		}
	}
	good, err := NewDynamicIndex(items, Options{SVD: true, Int: true, Reduction: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{127.5, 128, 32766, 1e9} {
		opts := Options{SVD: true, Int: true, Reduction: true, E: e}
		if _, err := NewIndex(items, opts); !errors.Is(err, ErrIntDomain) || !strings.Contains(err.Error(), "Options.E") {
			t.Fatalf("NewIndex, E = %v: %v, want ErrIntDomain naming Options.E", e, err)
		}
		if _, err := NewDynamicIndex(items, opts, 0); !errors.Is(err, ErrRebuild) || !strings.Contains(err.Error(), "Options.E") {
			t.Fatalf("NewDynamicIndex, E = %v: %v, want ErrRebuild naming Options.E", e, err)
		}
		state := craft(good)
		state.opts.E = e
		if _, _, err := loadSnapshot(context.Background(), bytes.NewReader(state.snapshot(t)), 1); !errors.Is(err, ErrRebuild) || !strings.Contains(err.Error(), "Options.E") {
			t.Fatalf("LoadSnapshot, E = %v: %v, want ErrRebuild naming Options.E", e, err)
		}
	}
}

// TestInt32TailFixture: testdata/fexidx_int32_tail.snap was written by
// Index.Save while the tail floors were int32 in memory and on disk (60×8
// standard normal rows from rand.NewSource(31), F-SIR), with idx.tail,
// idx.ints and idx.red sections today's Save no longer writes. The reader
// skips them, so the file must load into the index a fresh build gives —
// field for field, with the same answers, score bits and counters — and
// re-save as that build saves. The file predates the rounded checking
// dimension, so it carries the rule of its time (Options.rhoW): the fresh
// build takes the loaded index's options and with them that rule. A
// skipped section is still checksummed: one byte flipped inside the old
// idx.ints payload is ErrChecksum.
func TestInt32TailFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fexidx_int32_tail.snap"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	const n, d = 60, 8
	if want := (Options{SVD: true, Int: true, Reduction: true, rhoW: true}).withDefaults(); loaded.Options() != want {
		t.Fatalf("loaded options %+v, want %+v", loaded.Options(), want)
	}
	fresh, err := NewIndex(normalMatrix(rng, n, d), loaded.Options())
	if err != nil {
		t.Fatal(err)
	}
	if diff := firstFieldThatDiffers(fresh, loaded); diff != "" {
		t.Fatalf("loaded index differs from a fresh build in %q", diff)
	}
	rl, rf := NewRetriever(loaded), NewRetriever(fresh)
	for i := 0; i < 50; i++ {
		q := normalMatrix(rng, 1, d).Data
		got, want := rl.Search(q, 5), rf.Search(q, 5)
		if !reflect.DeepEqual(got, want) || rl.Stats() != rf.Stats() {
			t.Fatalf("query %d: loaded %v %+v, fresh %v %+v", i, got, rl.Stats(), want, rf.Stats())
		}
	}
	var resaved, built bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Save(&built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), built.Bytes()) {
		t.Fatalf("re-saved %d bytes, a fresh build saves %d", resaved.Len(), built.Len())
	}

	f, err := snap.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ints, ok := f.Section("idx.ints")
	if !ok {
		t.Fatal("the fixture has no idx.ints section: it no longer tests the old format")
	}
	at := bytes.Index(raw, ints) + len(ints)/2
	flipped := append([]byte(nil), raw...)
	flipped[at] ^= 0x40
	if _, err := ReadIndex(bytes.NewReader(flipped)); !errors.Is(err, snap.ErrChecksum) {
		t.Fatalf("byte %d of the skipped idx.ints flipped: err = %v, want ErrChecksum", at, err)
	}
}

// TestNewIntDataPredicate pins newIntData's range predicate at its edges:
// o = ⌈E⌉+1 ≤ 128 for the int8 floors, w·(o+1) ≤ 32767 for the head
// table's int16 Σ|f|+w (w ≤ 254 at E = 127, 321 at E = 100) and
// (d−w)·o² < 2³¹ for vec.DotTails's int32 sums. Every refusal wraps
// ErrIntDomain and names Options.E.
func TestNewIntDataPredicate(t *testing.T) {
	for _, tc := range []struct {
		d, w int
		e    float64
		ok   bool
	}{
		{50, 10, 100, true}, {50, 10, 127, true}, {50, 10, 127.5, false}, {50, 10, 128, false}, {50, 10, 32766, false},
		{50, 10, 0.5, true}, {50, 10, 0, false}, {50, 10, math.NaN(), false},
		{300, 254, 127, true}, {300, 255, 127, false}, {400, 321, 100, true}, {400, 322, 100, false}, // w·(o+1) against 32767
		{131072, 1, 127, true}, {131073, 1, 127, false}, // (d−w)·128² against 2³¹
		{210517, 1, 100, true}, {210518, 1, 100, false}, // (d−w)·101² against 2³¹
	} {
		id, err := newIntData(1, tc.d, tc.w, tc.e)
		if (err == nil) != tc.ok {
			t.Fatalf("newIntData(d=%d, w=%d, E=%v): err = %v, want ok = %v", tc.d, tc.w, tc.e, err, tc.ok)
		}
		if err != nil && (!errors.Is(err, ErrIntDomain) || !strings.Contains(err.Error(), "Options.E")) {
			t.Fatalf("newIntData(d=%d, w=%d, E=%v): err = %v, want ErrIntDomain naming Options.E", tc.d, tc.w, tc.e, err)
		}
		if err == nil && len(id.tail) != tc.d-tc.w {
			t.Fatalf("newIntData(d=%d, w=%d, E=%v): %d tail floors", tc.d, tc.w, tc.e, len(id.tail))
		}
	}
}

// TestHeadWidthSurvivesSaveLoad: the file stores the rows and ReadIndex
// derives the integer and reduction tables from them, so for every
// combination of S, I and R and for E at 1, 100 and the largest, 127 —
// whose −128 floors are the int8 range's end — an index read back is the
// built one table for table and saves the bytes the build saves.
func TestHeadWidthSurvivesSaveLoad(t *testing.T) {
	ds := data.Generate(data.MovieLens(), 200, 8, 16)
	for bits := 0; bits < 8; bits++ {
		for _, e := range []float64{1, 100, MaxE} {
			opts := Options{SVD: bits&1 != 0, Int: bits&2 != 0, Reduction: bits&4 != 0, E: e}
			built, err := NewIndex(ds.Items, opts)
			if err != nil {
				t.Fatal(err)
			}
			var file, again bytes.Buffer
			if err := built.Save(&file); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadIndex(bytes.NewReader(file.Bytes()))
			if err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			if diff := firstFieldThatDiffers(built, loaded); diff != "" {
				t.Fatalf("%+v: loaded index differs from the built one in %q", opts, diff)
			}
			if err := loaded.Save(&again); err != nil || !bytes.Equal(again.Bytes(), file.Bytes()) {
				t.Fatalf("%+v: re-saved %d bytes (err %v), the build saved %d", opts, again.Len(), err, file.Len())
			}
		}
	}
}

// row inverts floorRow: f receives row i's d floors; it returns Σ_{s<w}|f_s|.
func (id *intData) row(i, w int, f []int32) (sumAbsHead int64) {
	for s, x := range id.tail[i*(len(f)-w) : (i+1)*(len(f)-w)] {
		f[w+s] = int32(x)
	}
	return id.head.UnpackRow(f[:w], i)
}
