package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// sameScan runs the blocked loop and its per-item reference over rows
// [lo, hi) of idx from identically seeded collectors and fails unless
// results and every search.Stats field agree. It returns those stats.
func sameScan(t testing.TB, idx *Index, qs *queryState, lo, hi, k int, seed seedFn, shB, shP *search.SharedThreshold, what string) search.Stats {
	t.Helper()
	ctx := context.Background()
	var stB, stP search.Stats
	cB, cP := topk.New(k), topk.New(k)
	if seed != nil {
		seed(cB)
		seed(cP)
	}
	if err := idx.scanBlocked(ctx, qs, lo, hi, cB, shB, &stB); err != nil {
		t.Fatal(err)
	}
	if err := idx.scanPerItem(ctx, nil, qs, lo, hi, cP, shP, &stP); err != nil {
		t.Fatal(err)
	}
	if stB != stP || !reflect.DeepEqual(cB.Results(), cP.Results()) {
		t.Fatalf("%s rows [%d,%d) k=%d:\nblocked  %+v %v\nper-item %+v %v",
			what, lo, hi, k, stB, cB.Results(), stP, cP.Results())
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
// one-worker engine does).
func TestBlockedScanMatchesPerItem(t *testing.T) {
	const n = 20000
	for _, p := range []data.Profile{data.MovieLens(), data.Netflix()} {
		ds := data.Generate(p, n, 12, 50)
		opts := Options{SVD: true, Int: true, Reduction: true}
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
			if err := idx.scanPerItem(context.Background(), nil, qs, 0, n, top, nil, &st); err != nil {
				t.Fatal(err)
			}
			for _, lo := range []int{0, 1, 7, 15} {
				sameScan(t, idx, qs, lo, n, 10, seedAt(10, top.Threshold()), nil, nil, what+" seeded")
			}
			for _, shards := range []int{1, 2, 3, 7} {
				part := engine.NewPartition(n, shards)
				var shB, shP search.SharedThreshold
				for s := 0; s < shards; s++ {
					lo, hi := part.Range(s)
					sameScan(t, idx, qs, lo, hi, 10, nil, &shB, &shP, fmt.Sprintf("%s S=%d shard %d", what, shards, s))
				}
			}
		}
	}
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

// TestBlockedScanWordCounts: the blocked loop agrees with the per-item
// loop for every word count headMask has a straight-line body for, one
// it leaves to the generic loop, and the 2×32 and 1×64 layouts; and on
// those indexes headMask, headMaskGeneric and the one-row headBound
// decide every row alike, over every range length up to 32 and cuts
// that fall between, on and beyond the bounds.
func TestBlockedScanWordCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, d = 1500, 22
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	for _, tc := range []struct {
		w, nw int
		e     float64
	}{
		{9, 3, 100}, {15, 5, 100}, {18, 6, 100}, {21, 7, 100}, // specialised
		{12, 4, 100}, {2, 1, 100}, // generic, 3×21
		{9, 5, 1000}, {10, 5, 1000}, // 2×32 at a specialised word count
		{5, 5, 32766}, {7, 7, 32766}, {4, 4, 32766}, // 1×64, at the largest E there is
	} {
		idx, err := NewIndex(items, Options{Int: true, W: tc.w, E: tc.e})
		if err != nil {
			t.Fatal(err)
		}
		if idx.ints.nw != tc.nw {
			t.Fatalf("W=%d E=%v packs into %d words, want %d", tc.w, tc.e, idx.ints.nw, tc.nw)
		}
		what := fmt.Sprintf("W=%d E=%v", tc.w, tc.e)
		qs := idx.newQueryState()
		for trial := 0; trial < 4; trial++ {
			q := make([]float64, d)
			for s := range q {
				q[s] = rng.NormFloat64()
			}
			idx.prepareQuery(q, qs)
			for _, k := range []int{1, 10} {
				sameScan(t, idx, qs, 0, n, k, nil, nil, nil, what)
				sameScan(t, idx, qs, 5, n-3, k, nil, nil, nil, what)
			}
			for i := 0; i < n-32; i += 29 {
				hb := idx.headBound(qs, i+trial)
				for _, cut := range []float64{hb.bHead + hb.ub1, math.Nextafter(hb.bHead+hb.ub1, math.Inf(1)), math.Inf(-1), math.Inf(1), math.NaN()} {
					for stop := i; stop <= i+32; stop++ {
						var want uint32
						for row := i; row < stop; row++ {
							if hb := idx.headBound(qs, row); !(hb.bHead+hb.ub1 < cut) {
								want |= 1 << (row - i)
							}
						}
						if got := idx.headMask(qs, i, stop, cut); got != want {
							t.Fatalf("%s rows [%d,%d) cut %v: headMask %#x, row by row %#x", what, i, stop, cut, got, want)
						}
						if got := idx.headMaskGeneric(qs, i, stop, cut); got != want {
							t.Fatalf("%s rows [%d,%d) cut %v: headMaskGeneric %#x, row by row %#x", what, i, stop, cut, got, want)
						}
					}
				}
			}
		}
	}
}

// TestScanRangeDispatch: the blocked loop does not carry per-item fault
// hooks, so scanRange must hand a hooked scan to scanPerItem; one that
// reached scanBlocked would call the hook once per block instead of once
// per row.
func TestScanRangeDispatch(t *testing.T) {
	const n, k = 3000, 10
	ds := data.Generate(data.MovieLens(), n, 4, 50)
	idx, err := NewIndex(ds.Items, Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := idx.newQueryState()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		idx.prepareQuery(ds.Queries.Row(qi), qs)
		hook := faults.NewRegistry(1).Enable(faults.SiteScan, faults.Plan{})
		var st search.Stats
		if err := idx.scanRange(context.Background(), hook, qs, 0, n, topk.New(k), nil, &st); err != nil {
			t.Fatal(err)
		}
		visited := st.Scanned
		if st.PrunedByLength > 0 {
			visited++ // the row the scan broke at
		}
		if items := hook.Counts().Items; items != int64(visited) {
			t.Fatalf("query %d: hook saw %d rows of %d visited", qi, items, visited)
		}
	}
}

// FuzzBlockedScan builds a small-integer catalog (d ≤ 6, n ≤ 200, so
// ties are the norm), a query, k and a row range from the input and
// checks the blocked loop against the per-item one, results and every
// counter, from an empty collector and from one that starts full.
func FuzzBlockedScan(f *testing.F) {
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
	f.Add(raise)
	// d=2, k=1, rows [3, 60): one long row then short ones — the length
	// break falls inside the first block, not on its edge.
	brk := []byte{1, 0, 3, 60, 8, 8}
	brk = append(brk, 8, 8)
	for i := 1; i < 60; i++ {
		brk = append(brk, byte(4+i%2), 4)
	}
	f.Add(brk)
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, in []byte) {
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
		}
	})
}

// TestBlockedScanFaultHookPerItem: with a fault hook installed the scan
// keeps per-item semantics — a CancelAtItem in the middle of what would
// be a block stops after exactly that many rows, with the partial
// results and counters of a scan over just those rows.
func TestBlockedScanFaultHookPerItem(t *testing.T) {
	ds := data.Generate(data.Netflix(), 4000, 4, 50)
	idx, err := NewIndex(ds.Items, Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	const lo, cancelAt, k = 5, 21, 10
	hook := faults.NewRegistry(1).Enable(faults.SiteScan, faults.Plan{CancelAtItem: cancelAt})
	qs := idx.newQueryState()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		idx.prepareQuery(ds.Queries.Row(qi), qs)
		var got, want search.Stats
		cGot, cWant := topk.New(k), topk.New(k)
		err := idx.scanRange(context.Background(), hook, qs, lo, idx.n, cGot, nil, &got)
		if !errors.Is(err, search.ErrDeadline) {
			t.Fatalf("query %d: err = %v, want ErrDeadline", qi, err)
		}
		if err := idx.scanBlocked(context.Background(), qs, lo, lo+cancelAt, cWant, nil, &want); err != nil {
			t.Fatal(err)
		}
		if got != want || !reflect.DeepEqual(cGot.Results(), cWant.Results()) {
			t.Fatalf("query %d: cancelled at local item %d:\n got %+v %v\nwant %+v %v",
				qi, cancelAt, got, cGot.Results(), want, cWant.Results())
		}
		if got.Scanned != cancelAt {
			t.Fatalf("query %d: scanned %d rows before the cancel, want %d", qi, got.Scanned, cancelAt)
		}
	}
}

// TestPackedHeadMatchesFloors: on a built index the packed head bound of
// every row equals Theorem 2's IU^ℓ computed by vec.DotInt64 on the
// unpacked floors — for each packed layout and for items whose head
// coordinates sit at ±max, where e·v/max may floor to −e−1.
func TestPackedHeadMatchesFloors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, d = 300, 24
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	// A max whose scaled value 100·(−max)/max rounds below −100.
	var pin float64
	for pin = 10; math.Floor(100*-pin/pin) != -101; pin = 10 + rng.Float64() {
	}
	for s := 0; s < d; s++ {
		items.Set(s, s, pin)
		items.Set(d+s, s, -pin)
	}
	sawLowest := false
	for _, opts := range []Options{
		{Int: true, W: 7},
		{Int: true, W: 7, E: 1000},
		{Int: true, W: 7, E: 32766},
		{Int: true, W: d},
		{SVD: true, Int: true, Reduction: true},
	} {
		idx, err := NewIndex(items, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		id, w := idx.ints, idx.w
		qs := idx.newQueryState()
		floors := make([]int32, d)
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
			for _, f := range qs.qFloors {
				qSumAbs += abs64(int64(f))
			}
			for i := 0; i < n; i++ {
				sumAbs := id.row(i, w, floors)
				for _, f := range floors[:w] {
					sawLowest = sawLowest || int64(f) == -id.lay.Offset()
				}
				iu := vec.DotInt64(qs.qFloors, floors[:w]) + qSumAbs + sumAbs + int64(w)
				if got, want := idx.headBound(qs, i).bHead, float64(iu)*qs.headFactor; got != want {
					t.Fatalf("%+v row %d: packed head bound %v, from floors %v", opts, i, got, want)
				}
			}
		}
	}
	if !sawLowest {
		t.Fatal("no head floor reached −(⌈E⌉+1); the pinned rows do not exercise the offset")
	}
}

// TestNewIndexRejectsBadOptions: a non-finite E, Rho, PruneSlack or
// RankTol, or an E whose floors could overflow the integer tables at
// this shape, is an error, not an index — NaN in particular passes every
// range test withDefaults applies.
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
	// 3×21, 2×32 and 1×64 head layouts; TestEBoundary has the edge.
	for _, e := range []float64{0, -1, 10, 1000, 20000} {
		if _, err := NewIndex(items, Options{SVD: true, Int: true, E: e}); err != nil {
			t.Fatalf("E = %v: %v", e, err)
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

// TestEBoundary: the tail floors are int16, so E = 32766 (o = 32767) is
// the largest that builds — on the 1×64 head layout at every w, still
// exact — and anything above is refused by name wherever Options come
// in: NewIndex, NewDynamicIndex, and a snapshot whose dyn.meta carries
// such an E (a parent with int32 tails could write one).
func TestEBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(32766))
	const n, d = 300, 6
	items := normalMatrix(rng, n, d)
	for w := 1; w <= d; w++ {
		idx, err := NewIndex(items, Options{SVD: true, Int: true, Reduction: true, E: 32766, W: w})
		if err != nil {
			t.Fatalf("E = 32766, W = %d: %v", w, err)
		}
		if idx.ints.nw != w || idx.ints.lay.Offset() != math.MaxInt16 {
			t.Fatalf("E = 32766, W = %d: %d head words at offset %d, want one per floor at 32767", w, idx.ints.nw, idx.ints.lay.Offset())
		}
		r := NewRetriever(idx)
		for trial := 0; trial < 10; trial++ {
			q := normalMatrix(rng, 1, d).Data
			got, want := r.Search(q, 5), naiveLive(items, func(int) bool { return false }, q, 5)
			for i := range want {
				if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("E = 32766, W = %d: got %v, naive %v", w, got, want)
				}
			}
		}
	}
	good, err := NewDynamicIndex(items, Options{SVD: true, Int: true, Reduction: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{32767, 1e6, 1e9} {
		opts := Options{SVD: true, Int: true, Reduction: true, E: e}
		if _, err := NewIndex(items, opts); err == nil || !strings.Contains(err.Error(), "Options.E") {
			t.Fatalf("NewIndex, E = %v: %v, want an error naming Options.E", e, err)
		}
		if _, err := NewDynamicIndex(items, opts, 0); !errors.Is(err, ErrRebuild) || !strings.Contains(err.Error(), "Options.E") {
			t.Fatalf("NewDynamicIndex, E = %v: %v, want ErrRebuild naming Options.E", e, err)
		}
		state := craft(good)
		state.opts.E = e
		if _, _, err := LoadSnapshot(bytes.NewReader(state.snapshot(t)), 1); !errors.Is(err, ErrRebuild) || !strings.Contains(err.Error(), "Options.E") {
			t.Fatalf("LoadSnapshot, E = %v: %v, want ErrRebuild naming Options.E", e, err)
		}
	}
}

// TestDecodeIntDataRejectsLies: an idx.ints section that parses but whose
// floors leave the range E allows, or disagree with their stored sums,
// is corruption — in either encoding of the floors.
func TestDecodeIntDataRejectsLies(t *testing.T) {
	const n, d, w = 2, 3, 2
	narrow := false
	encode := func(floors []int32, sumAbsHead, sumAbsTail []int64) *snap.Decoder {
		var e snap.Encoder
		e.F64(100)
		for i := 0; i < 4; i++ {
			e.F64(1)
		}
		e.Bool(narrow)
		if narrow {
			floors16 := make([]int16, len(floors))
			for i, f := range floors {
				floors16[i] = int16(f)
			}
			e.Int16s(floors16)
		} else {
			e.Int32s(floors)
		}
		e.Int64s(sumAbsHead)
		e.Int64s(sumAbsTail)
		return snap.NewDecoder(e.Bytes())
	}
	good := []int32{-101, 100, 7, 1, -2, -3}
	for _, narrow = range []bool{false, true} {
		if _, err := decodeIntData(encode(good, []int64{201, 3}, []int64{7, 3}), n, d, w); err != nil {
			t.Fatalf("consistent section rejected: %v", err)
		}
		for name, dec := range map[string]*snap.Decoder{
			"head floor out of range": encode([]int32{-102, 100, 7, 1, -2, -3}, []int64{202, 3}, []int64{7, 3}),
			"tail floor out of range": encode([]int32{-101, 100, 101, 1, -2, -3}, []int64{201, 3}, []int64{101, 3}),
			"head sum mismatch":       encode(good, []int64{200, 3}, []int64{7, 3}),
			"tail sum mismatch":       encode(good, []int64{201, 3}, []int64{7, 4}),
			"short floors":            encode(good[:5], []int64{201, 3}, []int64{7, 3}),
		} {
			if _, err := decodeIntData(dec, n, d, w); !errors.Is(err, snap.ErrChecksum) {
				t.Fatalf("%s (int16 floors: %v): err = %v, want ErrChecksum", name, narrow, err)
			}
		}
	}
	// Only an int32 file can hold a floor no int16 does: it must be refused,
	// not wrapped around into range (40000 − 65536 = −25536 would pass at
	// E = 32766).
	e := 32766.0
	var enc snap.Encoder
	enc.F64(e)
	for i := 0; i < 4; i++ {
		enc.F64(1)
	}
	enc.Bool(false)
	enc.Int32s([]int32{1, 2, 40000, 1, -2, -3})
	enc.Int64s([]int64{3, 3})
	enc.Int64s([]int64{40000, 3})
	if _, err := decodeIntData(snap.NewDecoder(enc.Bytes()), n, d, w); !errors.Is(err, snap.ErrChecksum) {
		t.Fatalf("int32 floor 40000: err = %v, want ErrChecksum", err)
	}
}

// TestInt32TailFixture: testdata/fexidx_int32_tail.snap was written by
// Index.Save while the tail floors were int32 in memory and on disk (60×8
// standard normal rows from rand.NewSource(31), F-SIR). It must load into
// the index a fresh build gives — same answers, score bits and counters,
// the int16 tail making the very pruning decisions the int32 one made —
// re-save as that build saves, in the int16 encoding, and be refused once
// a floor in it is one no int16 tail could have produced.
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
	fresh, err := NewIndex(normalMatrix(rng, n, d), Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
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
	if !bytes.Equal(resaved.Bytes(), built.Bytes()) || resaved.Len() != len(raw)-2*n*d {
		t.Fatalf("re-saved %d bytes, a fresh build saves %d, the int32 file is %d", resaved.Len(), built.Len(), len(raw))
	}

	// idx.ints: e, two maxima, two scales, the encoding flag, the floors'
	// length, then n·d floors of four bytes; the last of row 0 is a tail one.
	lying := withSection(t, raw, secIdxInts, func(p []byte) {
		if p[5*8] != 0 {
			t.Fatal("the fixture's floors are not in the int32 encoding")
		}
		binary.LittleEndian.PutUint32(p[5*8+1+8+4*(d-1):], 40000)
	})
	if _, err := ReadIndex(bytes.NewReader(lying)); !errors.Is(err, snap.ErrChecksum) {
		t.Fatalf("floor patched to 40000: err = %v, want ErrChecksum", err)
	}
}
