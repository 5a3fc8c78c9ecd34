package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fexipro/internal/data"
	"fexipro/internal/engine"
	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/snap"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

type scanFn func(qs *queryState, lo, hi int, c *topk.Collector, shared *search.SharedThreshold, st *search.Stats) error

// scanPair returns the blocked loop and its per-item reference over idx.
func scanPair(idx *Index) (blocked, perItem scanFn) {
	ctx := context.Background()
	return func(qs *queryState, lo, hi int, c *topk.Collector, shared *search.SharedThreshold, st *search.Stats) error {
			return idx.scanBlocked(ctx, qs, lo, hi, c, shared, st)
		}, func(qs *queryState, lo, hi int, c *topk.Collector, shared *search.SharedThreshold, st *search.Stats) error {
			return idx.scanPerItem(ctx, nil, qs, lo, hi, c, shared, st)
		}
}

// TestBlockedScanMatchesPerItem: on the MovieLens and Netflix shapes at
// n = 2·10⁴ the two-phase blocked loop must return the same results AND
// the same value in every search.Stats field as the per-item loop, query
// by query — over ranges whose ends are not multiples of the block size,
// over S ∈ {1,2,3,7} shards scanned in order against one shared
// threshold (what a one-worker engine does), and under the Unsorted and
// CompactInts options.
func TestBlockedScanMatchesPerItem(t *testing.T) {
	const n, k = 20000, 10
	for _, p := range []data.Profile{data.MovieLens(), data.Netflix()} {
		ds := data.Generate(p, n, 12, 50)
		for _, opts := range []Options{
			{SVD: true, Int: true, Reduction: true},
			{SVD: true, Int: true, Reduction: true, Unsorted: true},
			{SVD: true, Int: true, Reduction: true, CompactInts: true},
		} {
			idx, err := NewIndex(ds.Items, opts)
			if err != nil {
				t.Fatal(err)
			}
			blocked, perItem := scanPair(idx)
			qs := idx.newQueryState()
			for qi := 0; qi < ds.Queries.Rows; qi++ {
				idx.prepareQuery(ds.Queries.Row(qi), qs)
				if !qs.headFirst {
					t.Fatal("F-SIR query state does not select the blocked scan")
				}
				for _, r := range [][2]int{{0, n}, {3, n - 5}, {17, 10007}, {4999, 5001}, {31, 48}} {
					var stB, stP search.Stats
					cB, cP := topk.New(k), topk.New(k)
					if err := blocked(qs, r[0], r[1], cB, nil, &stB); err != nil {
						t.Fatal(err)
					}
					if err := perItem(qs, r[0], r[1], cP, nil, &stP); err != nil {
						t.Fatal(err)
					}
					if stB != stP || !reflect.DeepEqual(cB.Results(), cP.Results()) {
						t.Fatalf("%s %+v query %d range %v:\nblocked  %+v %v\nper-item %+v %v",
							p.Name, opts, qi, r, stB, cB.Results(), stP, cP.Results())
					}
				}
				for _, shards := range []int{1, 2, 3, 7} {
					part := engine.NewPartition(n, shards)
					var shB, shP search.SharedThreshold
					for s := 0; s < shards; s++ {
						lo, hi := part.Range(s)
						var stB, stP search.Stats
						cB, cP := topk.New(k), topk.New(k)
						if err := blocked(qs, lo, hi, cB, &shB, &stB); err != nil {
							t.Fatal(err)
						}
						if err := perItem(qs, lo, hi, cP, &shP, &stP); err != nil {
							t.Fatal(err)
						}
						if stB != stP || !reflect.DeepEqual(cB.Results(), cP.Results()) {
							t.Fatalf("%s %+v query %d S=%d shard %d:\nblocked  %+v\nper-item %+v",
								p.Name, opts, qi, shards, s, stB, stP)
						}
					}
				}
			}
		}
	}
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
// unpacked floors — for each packed layout, the compact tail storage,
// and items whose head coordinates sit at ±max, where e·v/max may floor
// to −e−1.
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
		{Int: true, W: 7, CompactInts: true},
		{Int: true, W: 7, E: 1000},
		{Int: true, W: 7, E: 1e6},
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
			for _, f := range qs.qFloors[:w] {
				qSumAbs += abs64(int64(f))
			}
			for i := 0; i < n; i++ {
				sumAbs := id.row(i, w, floors)
				for _, f := range floors[:w] {
					sawLowest = sawLowest || int64(f) == -id.lay.Offset()
				}
				iu := vec.DotInt64(qs.qFloors[:w], floors[:w]) + qSumAbs + sumAbs + int64(w)
				var hb [1]headBound
				idx.headBounds(qs, i, hb[:])
				if want := float64(iu) * qs.headFactor; hb[0].bHead != want {
					t.Fatalf("%+v row %d: packed head bound %v, from floors %v", opts, i, hb[0].bHead, want)
				}
			}
		}
	}
	if !sawLowest {
		t.Fatal("no head floor reached −(⌈E⌉+1); the pinned rows do not exercise the offset")
	}
}

// TestNewIndexRejectsBadE: a non-finite E, or one whose floors could
// overflow the integer tables at this shape, is an error, not an index.
func TestNewIndexRejectsBadE(t *testing.T) {
	items := vec.NewMatrix(20, 6)
	for i := range items.Data {
		items.Data[i] = float64(i%7) - 3
	}
	for _, e := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e9, 1e300} {
		if _, err := NewIndex(items, Options{SVD: true, Int: true, E: e}); err == nil {
			t.Fatalf("E = %v accepted", e)
		}
	}
	if _, err := NewIndex(items, Options{SVD: true, E: math.NaN()}); err == nil {
		t.Fatal("E = NaN accepted without the integer bound")
	}
	for _, e := range []float64{0, -1, 10, 1000, 1e6} {
		if _, err := NewIndex(items, Options{SVD: true, Int: true, E: e}); err != nil {
			t.Fatalf("E = %v: %v", e, err)
		}
	}
}

// TestDecodeIntDataRejectsLies: an idx.ints section that parses but whose
// floors leave the packed range, or disagree with their stored sums, is
// corruption.
func TestDecodeIntDataRejectsLies(t *testing.T) {
	const n, d, w = 2, 3, 2
	encode := func(floors []int32, sumAbsHead, sumAbsTail []int64) *snap.Decoder {
		var e snap.Encoder
		e.F64(100)
		for i := 0; i < 4; i++ {
			e.F64(1)
		}
		e.Bool(false)
		e.Int32s(floors)
		e.Int64s(sumAbsHead)
		e.Int64s(sumAbsTail)
		return snap.NewDecoder(e.Bytes())
	}
	good := []int32{-101, 100, 7, 1, -2, -3}
	if _, err := decodeIntData(encode(good, []int64{201, 3}, []int64{7, 3}), n, d, w); err != nil {
		t.Fatalf("consistent section rejected: %v", err)
	}
	for name, dec := range map[string]*snap.Decoder{
		"head floor out of range": encode([]int32{-102, 100, 7, 1, -2, -3}, []int64{202, 3}, []int64{7, 3}),
		"head sum mismatch":       encode(good, []int64{200, 3}, []int64{7, 3}),
		"tail sum mismatch":       encode(good, []int64{201, 3}, []int64{7, 4}),
		"short floors":            encode(good[:5], []int64{201, 3}, []int64{7, 3}),
	} {
		if _, err := decodeIntData(dec, n, d, w); !errors.Is(err, snap.ErrChecksum) {
			t.Fatalf("%s: err = %v, want ErrChecksum", name, err)
		}
	}
}
