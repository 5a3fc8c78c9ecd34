package core_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/data"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// overflowCatalog is a 50×8 MovieLens-shaped catalog and three queries,
// with every coordinate of row 7 set to mag.
func overflowCatalog(mag float64) (items, queries *vec.Matrix) {
	ds := data.Generate(data.MovieLens(), 50, 3, 8)
	for s := range ds.Items.Row(7) {
		ds.Items.Row(7)[s] = mag
	}
	return ds.Items, ds.Queries
}

// overflowMagnitudes: 1e150 squares to 1e300 and must still index; from
// 1e155 on the squared norm is +Inf, the Gram matrix with it, and the
// index used to build with σ = 0 and answer every query [{0 0} {1 0} …].
var overflowMagnitudes = []struct {
	mag    float64
	builds bool
}{{1e150, true}, {1e155, false}, {1e200, false}, {math.MaxFloat64, false}}

// TestNewIndexRejectsOverflowingNorms: finite coordinates whose squared
// norm — or whose sum of squared norms over the catalog — is not finite
// get ErrNotFinite from every variant; the largest magnitude that does
// square still ranks exactly.
func TestNewIndexRejectsOverflowingNorms(t *testing.T) {
	for _, variant := range allVariants {
		opts, err := core.OptionsForVariant(variant)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range overflowMagnitudes {
			items, queries := overflowCatalog(c.mag)
			idx, err := core.NewIndex(items, opts)
			if !c.builds {
				if !errors.Is(err, core.ErrNotFinite) {
					t.Errorf("%s at %g: error %v, want ErrNotFinite", variant, c.mag, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s at %g: %v", variant, c.mag, err)
			}
			r := core.NewRetriever(idx)
			for i := 0; i < queries.Rows; i++ {
				searchtest.CheckTopK(t, items, queries.Row(i), 3, r.Search(queries.Row(i), 3), variant)
			}
		}

		// Every row squares to 1e308; two of them sum past MaxFloat64.
		items, _ := overflowCatalog(1)
		for _, row := range []int{3, 9} {
			for s := range items.Row(row) {
				items.Row(row)[s] = math.Sqrt(1e308 / 8)
			}
		}
		if _, err := core.NewIndex(items, opts); !errors.Is(err, core.ErrNotFinite) {
			t.Errorf("%s with Σ‖p‖² = +Inf: error %v, want ErrNotFinite", variant, err)
		}
	}
}

// dynState is everything a caller can see of a dynamic index: its size,
// its snapshot bytes and its answers.
func dynState(t *testing.T, di *core.DynamicIndex, queries *vec.Matrix) (int, []byte, [][]float64) {
	t.Helper()
	var snapshot bytes.Buffer
	if err := di.SaveSnapshot(&snapshot, 1); err != nil {
		t.Fatal(err)
	}
	var answers [][]float64
	for i := 0; i < queries.Rows; i++ {
		var flat []float64
		for _, r := range di.Search(queries.Row(i), 5) {
			flat = append(flat, float64(r.ID), r.Score)
		}
		answers = append(answers, flat)
	}
	return di.Len(), snapshot.Bytes(), answers
}

// TestDynamicIndexUnchangedByRejectedAdd: an index that was offered an
// overflowing item between its other updates is, to every observer, the
// index that never saw it — at the step where the old code rebuilt, lost
// its delta buffer and kept counting it. Both fixes are exercised: Add's
// own norm check (the public path) and, with that bypassed by a catalog
// whose Σ‖p‖² only overflows once the delta is folded in, the rollback of
// a rebuild that fails.
func TestDynamicIndexUnchangedByRejectedAdd(t *testing.T) {
	opts := core.Options{SVD: true, Int: true, Reduction: true}
	items, queries := overflowCatalog(1)
	for _, shards := range []int{1, 3} {
		build := func() *core.DynamicIndex {
			di, err := core.NewDynamicIndexSharded(items.Slice(0, 20), opts, 0.5, shards, 1)
			if err != nil {
				t.Fatal(err)
			}
			return di
		}
		same := func(step string, got, twin *core.DynamicIndex) {
			t.Helper()
			gl, gs, ga := dynState(t, got, queries)
			tl, ts, ta := dynState(t, twin, queries)
			if gl != tl || !bytes.Equal(gs, ts) {
				t.Fatalf("S=%d %s: Len %d vs %d, snapshots equal: %v", shards, step, gl, tl, bytes.Equal(gs, ts))
			}
			for i := range ga {
				if !sameFloats(ga[i], ta[i]) {
					t.Fatalf("S=%d %s: query %d answers %v, twin %v", shards, step, i, ga[i], ta[i])
				}
			}
		}

		di, twin := build(), build()
		add := func(row int) {
			t.Helper()
			a, errA := di.Add(items.Row(row))
			b, errB := twin.Add(items.Row(row))
			if errA != nil || errB != nil || a != b {
				t.Fatalf("S=%d: add of row %d: %d, %v vs %d, %v", shards, row, a, errA, b, errB)
			}
		}
		for row := 20; row < 29; row++ { // nine items into the delta buffers
			add(row)
		}
		for _, c := range overflowMagnitudes[1:] {
			bad := vec.Clone(items.Row(7))
			bad[2] = c.mag
			if _, err := di.Add(bad); !errors.Is(err, core.ErrNotFinite) {
				t.Fatalf("S=%d: add at %g: error %v, want ErrNotFinite", shards, c.mag, err)
			}
			same("after the rejected add", di, twin)
		}
		for row := 29; row < 34; row++ { // five more: rebuilds happen
			add(row)
		}
		same("after five more adds", di, twin)

		// An item Add accepts (its own squared norm is 1e308) whose shard
		// cannot be rebuilt once a second one joins it: the add that
		// triggers that rebuild fails and is rolled back, and so is a
		// delete that triggers it.
		huge := make([]float64, 8)
		for s := range huge {
			huge[s] = math.Sqrt(1e308 / 8)
		}
		di, twin = build(), build()
		var failed bool
		var hugeIDs []int
		for i := 0; i < 40 && !failed; i++ {
			_, err := di.Add(huge)
			if failed = err != nil; failed {
				// The vector itself is fine: the error must not blame it.
				if !errors.Is(err, core.ErrRebuild) || errors.Is(err, core.ErrNotFinite) {
					t.Fatalf("S=%d: add %d of a 1e308 item: %v, want ErrRebuild only", shards, i, err)
				}
				break
			}
			id, err := twin.Add(huge)
			if err != nil {
				t.Fatalf("S=%d: twin add %d: %v", shards, i, err)
			}
			hugeIDs = append(hugeIDs, id)
		}
		if !failed {
			t.Fatalf("S=%d: forty 1e308 items never failed a rebuild", shards)
		}
		same("after the add whose rebuild failed", di, twin)
		if err := di.Delete(0); !errors.Is(err, core.ErrRebuild) {
			t.Fatalf("S=%d: delete forcing the same rebuild: %v", shards, err)
		}
		same("after the delete whose rebuild failed", di, twin)

		// The way out: the offending items sit in delta buffers (no
		// successful rebuild can have folded them in), deleting those
		// triggers no rebuild, and without them the shards build again.
		for _, id := range hugeIDs {
			if err := di.Delete(id); err != nil {
				t.Fatalf("S=%d: delete of 1e308 item %d: %v", shards, id, err)
			}
		}
		for row := 20; row < 50; row++ {
			if _, err := di.Add(items.Row(row)); err != nil {
				t.Fatalf("S=%d: add of row %d after the 1e308 items left: %v", shards, row, err)
			}
		}
	}
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// hugeItemCatalog is the catalog that used to rank wrongly with a nil
// error: 50×8 standard normal rows, ONE coordinate of row 7 set to big,
// and queries that ignore that coordinate (so the huge item does not
// simply win). From 1e13 on, every direction but the huge item's falls
// under RankTol·σ₁ and was zeroed — with the other 49 items in it.
func hugeItemCatalog(big float64) (items, queries *vec.Matrix) {
	rng := rand.New(rand.NewSource(1))
	items, queries = vec.NewMatrix(50, 8), vec.NewMatrix(5, 8)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	for i := range queries.Data {
		queries.Data[i] = rng.NormFloat64()
	}
	items.Row(7)[3] = big
	for i := 0; i < queries.Rows; i++ {
		queries.Row(i)[3] = 0
	}
	return items, queries
}

// hugeItemMagnitudes: up to 1e12 the SVD keeps every direction and the
// ranking is exact; beyond, NewIndex must refuse rather than drop them.
var hugeItemMagnitudes = []struct {
	big    float64
	builds bool
}{{1e6, true}, {1e9, true}, {1e12, true}, {1e13, false}, {1e16, false}, {1e20, false}}

// TestNewIndexRefusesLossyTransform: every SVD variant either ranks the
// one-huge-item catalog like naive or returns ErrIllConditioned; the
// variants without the SVD have nothing to lose and always build.
func TestNewIndexRefusesLossyTransform(t *testing.T) {
	for _, variant := range allVariants {
		opts, err := core.OptionsForVariant(variant)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range hugeItemMagnitudes {
			items, queries := hugeItemCatalog(c.big)
			idx, err := core.NewIndex(items, opts)
			if opts.SVD && !c.builds {
				if !errors.Is(err, core.ErrIllConditioned) {
					t.Errorf("%s at %g: error %v, want ErrIllConditioned", variant, c.big, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s at %g: %v", variant, c.big, err)
			}
			r := core.NewRetriever(idx)
			for i := 0; i < queries.Rows; i++ {
				searchtest.CheckTopK(t, items, queries.Row(i), 3, r.Search(queries.Row(i), 3), variant)
			}
		}
	}
}

// TestDynamicIndexRefusesLossyRebuild: Add accepts the huge item (it is a
// finite vector), the rebuild that would fold it into a main index fails
// with ErrRebuild and leaves the index — size, snapshot bytes, answers —
// as it was; at magnitudes the SVD can hold, the rebuild goes through and
// the index keeps answering like naive.
func TestDynamicIndexRefusesLossyRebuild(t *testing.T) {
	opts := core.Options{SVD: true, Int: true, Reduction: true}
	for _, c := range hugeItemMagnitudes {
		items, queries := hugeItemCatalog(c.big)
		rest := vec.NewMatrix(0, 8)
		for i := 0; i < items.Rows; i++ {
			if i != 7 {
				rest.Data = append(rest.Data, items.Row(i)...)
				rest.Rows++
			}
		}
		// 0.03 × 49 rows = 1.47 pending: the first add is tolerated, the
		// second rebuilds.
		di, err := core.NewDynamicIndexSharded(rest, opts, 0.03, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := di.Add(items.Row(7)); err != nil {
			t.Fatalf("at %g: add of the huge item: %v", c.big, err)
		}
		len0, snap0, answers0 := dynState(t, di, queries)
		_, err = di.Add(items.Row(0))
		if c.builds {
			if err != nil || di.Rebuilds()[0] != 2 {
				t.Fatalf("at %g: add returned %v after %d builds", c.big, err, di.Rebuilds()[0])
			}
			all := vec.NewMatrix(0, 8)
			all.Data = append(append(append(all.Data, rest.Data...), items.Row(7)...), items.Row(0)...)
			all.Rows = 51
			for i := 0; i < queries.Rows; i++ {
				searchtest.CheckTopK(t, all, queries.Row(i), 3, di.Search(queries.Row(i), 3), "dynamic")
			}
			continue
		}
		if !errors.Is(err, core.ErrRebuild) {
			t.Fatalf("at %g: add forcing the rebuild: %v, want ErrRebuild", c.big, err)
		}
		len1, snap1, answers1 := dynState(t, di, queries)
		if len0 != len1 || !bytes.Equal(snap0, snap1) || !slices.EqualFunc(answers0, answers1, sameFloats) {
			t.Fatalf("at %g: the failed rebuild changed the index", c.big)
		}
	}
}
