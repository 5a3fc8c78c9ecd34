package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/data"
	"fexipro/internal/searchtest"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// liveReference mirrors the dynamic index with a plain slice and a naive
// scan of the live rows into a collector of k: the canonical
// (score desc, ID asc) top-k of the live catalog under original scores.
type liveReference struct {
	items [][]float64
	dead  map[int]bool
}

func newLiveReference(initial *vec.Matrix) *liveReference {
	lr := &liveReference{dead: map[int]bool{}}
	for i := 0; i < initial.Rows; i++ {
		lr.items = append(lr.items, initial.Row(i))
	}
	return lr
}

func (lr *liveReference) topK(q []float64, k int) []topk.Result {
	c := topk.New(k)
	for id, it := range lr.items {
		if !lr.dead[id] {
			c.Push(id, vec.Dot(q, it))
		}
	}
	return c.Results()
}

// sameResults reports how got departs from want: same IDs in the same
// order, scores within tol (each shard scores in its own transformed
// space).
func sameResults(got, want []topk.Result, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > tol {
			return fmt.Errorf("rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func TestDynamicIndexRandomizedOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	d := 12
	initial := vec.NewMatrix(100, d)
	for i := range initial.Data {
		initial.Data[i] = rng.NormFloat64()
	}
	di, err := core.NewDynamicIndex(initial, core.Options{SVD: true, Int: true, Reduction: true}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ref := newLiveReference(initial)

	liveIDs := func() []int {
		var out []int
		for id := range ref.items {
			if !ref.dead[id] {
				out = append(out, id)
			}
		}
		return out
	}

	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // add
			item := make([]float64, d)
			for j := range item {
				item[j] = rng.NormFloat64()
			}
			id, err := di.Add(item)
			if err != nil {
				t.Fatal(err)
			}
			if id != len(ref.items) {
				t.Fatalf("step %d: id %d, want %d", step, id, len(ref.items))
			}
			ref.items = append(ref.items, vec.Clone(item))
		case op < 6: // delete a random live item
			live := liveIDs()
			if len(live) <= 5 {
				continue
			}
			id := live[rng.Intn(len(live))]
			if err := di.Delete(id); err != nil {
				t.Fatal(err)
			}
			ref.dead[id] = true
		default: // query
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			k := 1 + rng.Intn(8)
			got := di.Search(q, k)
			want := ref.topK(q, k)
			if len(got) != len(want) {
				t.Fatalf("step %d: got %d results, want %d", step, len(got), len(want))
			}
			for i := range want {
				if diff := got[i].Score - want[i].Score; diff > 1e-7 || diff < -1e-7 {
					t.Fatalf("step %d rank %d: %v vs %v", step, i, got[i], want[i])
				}
				if ref.dead[got[i].ID] {
					t.Fatalf("step %d: returned deleted item %d", step, got[i].ID)
				}
			}
		}
	}
	if di.Len() != len(liveIDs()) {
		t.Fatalf("Len = %d, want %d", di.Len(), len(liveIDs()))
	}
}

func TestDynamicIndexStartsEmpty(t *testing.T) {
	di, err := core.NewDynamicIndex(vec.NewMatrix(0, 4), core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{1, 0, 0, 0}
	if got := di.Search(q, 3); len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
	id, err := di.Add([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	got := di.Search(q, 3)
	if len(got) != 1 || got[0].ID != id {
		t.Fatalf("got %v", got)
	}
}

func TestDynamicIndexErrors(t *testing.T) {
	if _, err := core.NewDynamicIndex(vec.NewMatrix(0, 0), core.Options{}, 0); err == nil {
		t.Fatal("expected error for zero dim")
	}
	di, err := core.NewDynamicIndex(vec.NewMatrix(3, 2), core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.Add([]float64{1}); err == nil {
		t.Fatal("expected dim error")
	}
	if err := di.Delete(99); err == nil {
		t.Fatal("expected unknown-id error")
	}
	if err := di.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := di.Delete(0); err == nil {
		t.Fatal("expected double-delete error")
	}
}

func TestDynamicIndexDeleteEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	items, q := searchtest.RandomInstance(rng, 20, 5)
	di, err := core.NewDynamicIndex(items, core.Options{SVD: true}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 20; id++ {
		if err := di.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if di.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", di.Len())
	}
	if got := di.Search(q, 5); len(got) != 0 {
		t.Fatalf("search over empty catalog returned %v", got)
	}
}

// passedOver returns the largest number of tombstones any one shard's
// main index ranks above its k-th best live row for q, over the rows
// [0, mainRows) split id mod shards — how far the deletions push that
// shard's final threshold down its own ranking.
func (lr *liveReference) passedOver(q []float64, k, mainRows, shards int) int {
	worst := 0
	for s := 0; s < shards; s++ {
		live := topk.New(k)
		for id := s; id < mainRows; id += shards {
			if !lr.dead[id] {
				live.Push(id, vec.Dot(q, lr.items[id]))
			}
		}
		best := live.Results()
		over := 0
		for id := s; id < mainRows; id += shards {
			if !lr.dead[id] {
				continue
			}
			// Canonical order decides between the dead row and the k-th
			// live one; with fewer than k live rows every dead one counts.
			pair := []topk.Result{{ID: id, Score: vec.Dot(q, lr.items[id])}}
			if len(best) == k {
				pair = append(pair, best[k-1])
				topk.SortResults(pair)
			}
			if pair[0].ID == id {
				over++
			}
		}
		worst = max(worst, over)
	}
	return worst
}

// TestDynamicTombstonesKeepThreshold pins, by counters alone, that a
// tombstone costs a search nothing but its own row: on a MovieLens-shape
// catalog of 2·10⁴ at S ∈ {1,2,3,7} (one worker, so the shards and their
// shared threshold run in a fixed order), after deleting 200 and then
// 2 000 random rows, then a query's whole top-k, then adding items and
// deleting some of those again, every query scans at most what the
// untouched twin index scans for k + j — j the tombstones a shard passes
// over to reach its k-th live row, 0 for a query whose top rows all
// survive — plus the delta buffer, and returns the naive live top-k in
// canonical order. (A collector widened by the tombstone count would scan
// what the twin scans for k + 2 000.)
func TestDynamicTombstonesKeepThreshold(t *testing.T) {
	const n, k = 20000, 10
	ds := data.Generate(data.MovieLens(), n, 6, 50)
	opts := core.Options{SVD: true, Int: true, Reduction: true}
	for _, shards := range []int{1, 2, 3, 7} {
		twin, err := core.NewDynamicIndexSharded(ds.Items, opts, 0, shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		di, err := core.NewDynamicIndexSharded(ds.Items, opts, 0, shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := newLiveReference(ds.Items)
		rng := rand.New(rand.NewSource(180))
		kill := func(id int) {
			t.Helper()
			if err := di.Delete(id); err != nil {
				t.Fatal(err)
			}
			ref.dead[id] = true
		}
		killRandom := func(count int) {
			for count > 0 {
				if id := rng.Intn(n); !ref.dead[id] {
					kill(id)
					count--
				}
			}
		}
		check := func(phase string) {
			t.Helper()
			for qi := 0; qi < ds.Queries.Rows; qi++ {
				q := ds.Queries.Row(qi)
				want := ref.topK(q, k+1) // one past k, to place above-t's t
				got, st := searchtest.Counted(di, q, k)
				if err := sameResults(got, want[:k], searchtest.Tolerance); err != nil {
					t.Fatalf("S=%d %s query %d: %v", shards, phase, qi, err)
				}
				j := ref.passedOver(q, k, n, shards)
				_, twinSt := searchtest.Counted(twin, q, k+j)
				if bound := twinSt.Scanned + len(ref.items) - n; st.Scanned > bound {
					t.Fatalf("S=%d %s query %d: scanned %d rows, the twin scans %d for k+%d plus the delta",
						shards, phase, qi, st.Scanned, bound, j)
				}
				above := di.SearchAbove(q, (want[k-1].Score+want[k].Score)/2)
				if err := sameResults(above, want[:k], searchtest.Tolerance); err != nil {
					t.Fatalf("S=%d %s query %d above-t: %v", shards, phase, qi, err)
				}
			}
		}

		killRandom(200)
		check("200 tombstones")
		killRandom(1800)
		check("2000 tombstones")
		for _, r := range ref.topK(ds.Queries.Row(0), k) {
			kill(r.ID)
		}
		check("query 0's top-k tombstoned")
		// Delta items that outrank the whole catalog for query 1, then a
		// delete-then-search on half of them.
		q1 := ds.Queries.Row(1)
		for a := 0; a < 2*k; a++ {
			item := vec.Scaled(q1, float64(2+a))
			id, err := di.Add(item)
			if err != nil || id != len(ref.items) {
				t.Fatalf("S=%d: add returned %d, %v", shards, id, err)
			}
			ref.items = append(ref.items, item)
		}
		check("delta on top")
		for id := n; id < n+2*k; id += 2 {
			kill(id)
		}
		check("delta half tombstoned")
		for s, r := range di.Rebuilds() {
			if r != 1 {
				t.Fatalf("S=%d: shard %d rebuilt %d times; the twin comparison needs the initial main indexes", shards, s, r)
			}
		}
	}
}

// TestDynamicAddAllocatesPerItem: 64 Adds on a 2·10⁴ × 50 catalog must
// not copy it per insert (64 catalogs); they fill one catalog block.
func TestDynamicAddAllocatesPerItem(t *testing.T) {
	const n, d = 20000, 50
	ds := data.Generate(data.MovieLens(), n, 1, d)
	di, err := core.NewDynamicIndex(ds.Items, core.Options{SVD: true, Int: true, Reduction: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	item := vec.Clone(ds.Items.Row(0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for a := 0; a < 64; a++ {
		if _, err := di.Add(item); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	catalog := uint64(n * d * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*catalog {
		t.Fatalf("64 adds allocated %d bytes, catalog is %d", got, catalog)
	}
}

// TestDynamicReusesQueryState: the engine's dynQuery and each shard's
// queryState are overwritten from one query to the next, and a state is
// re-made — not reused — once a rebuild has replaced the index it was
// sized for. Adds alone force the rebuild, so a fresh index over the
// grown catalog has the same IDs (scores to 1e-9: the fresh one has no
// delta buffer, whose items are scored untransformed).
func TestDynamicReusesQueryState(t *testing.T) {
	const n, d, k = 400, 12, 5
	opts := core.Options{SVD: true, Int: true, Reduction: true}
	ds := data.Generate(data.MovieLens(), n, 4, d)
	for _, shards := range []int{1, 3} {
		di, err := core.NewDynamicIndexSharded(ds.Items, opts, 0, shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		all := ds.Items.Clone()
		check := func(when string) {
			t.Helper()
			fresh, err := core.NewDynamicIndexSharded(all, opts, 0, shards, 1)
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < ds.Queries.Rows; qi++ {
				q := ds.Queries.Row(qi)
				if err := sameResults(di.Search(q, k), fresh.Search(q, k), 1e-9); err != nil {
					t.Fatalf("S=%d, %s, query %d: %v", shards, when, qi, err)
				}
			}
		}
		check("initial")

		q := ds.Queries.Row(0)
		mallocs := func() uint64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			before := m.Mallocs
			di.Search(q, k)
			runtime.ReadMemStats(&m)
			return m.Mallocs - before
		}
		steady := testing.AllocsPerRun(50, func() { di.Search(q, k) })
		// What is left is collectors, result slices, the transformed
		// query and, above one shard, the engine's fan-out; the parent
		// made a dynQuery, its state slice and the five allocations of
		// newQueryState per shard on top (14 and 45 per search).
		if limit := map[int]float64{1: 7, 3: 28}[shards]; steady > limit {
			t.Fatalf("S=%d: a steady-state search allocates %.0f times, want ≤ %.0f", shards, steady, limit)
		}

		rng := rand.New(rand.NewSource(24))
		rebuilt := di.Rebuilds()
		for a := 0; a < n/2; a++ { // past 20 % of every shard
			item := make([]float64, d)
			for j := range item {
				item[j] = rng.NormFloat64()
			}
			if _, err := di.Add(item); err != nil {
				t.Fatal(err)
			}
			all.Rows++
			all.Data = append(all.Data, item...)
		}
		for s, r := range di.Rebuilds() {
			if r == rebuilt[s] {
				t.Fatalf("S=%d: shard %d was not rebuilt by %d adds", shards, s, n/2)
			}
		}
		if first := mallocs(); float64(first) <= steady {
			t.Fatalf("S=%d: the first search after a rebuild allocated %d times, steady state %.0f: the stale query state was reused", shards, first, steady)
		}
		check("after rebuild")
		if again := testing.AllocsPerRun(50, func() { di.Search(q, k) }); again != steady {
			t.Fatalf("S=%d: %.0f allocations per search after the rebuild, %.0f before", shards, again, steady)
		}
	}
}
