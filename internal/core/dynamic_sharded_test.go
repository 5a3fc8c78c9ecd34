package core_test

import (
	"math/rand"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestDynamicShardedMatchesReference drives a sharded dynamic index
// through a randomized add/delete/query workload and checks every query
// against a naive live-catalog reference. Per-shard preprocessing means
// scores match to tolerance (each shard has its own SVD), not bitwise.
func TestDynamicShardedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	d := 10
	initial := vec.NewMatrix(80, d)
	for i := range initial.Data {
		initial.Data[i] = rng.NormFloat64()
	}
	di, err := core.NewDynamicIndexSharded(initial, core.Options{SVD: true, Int: true, Reduction: true}, 0.25, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if di.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", di.Shards())
	}
	ref := newLiveReference(initial)

	for step := 0; step < 250; step++ {
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
			var live []int
			for id := range ref.items {
				if !ref.dead[id] {
					live = append(live, id)
				}
			}
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
				if diff := got[i].Score - want[i].Score; diff > searchtest.Tolerance || diff < -searchtest.Tolerance {
					t.Fatalf("step %d rank %d: %v vs %v", step, i, got[i], want[i])
				}
				if ref.dead[got[i].ID] {
					t.Fatalf("step %d: returned deleted item %d", step, got[i].ID)
				}
			}
		}
	}
}

// TestDynamicShardedRebuildIsolation pins the ~S× amortized rebuild
// saving: every rebuild triggered by an Add or Delete touches ONLY the
// shard owning the mutated ID (id mod S), never its siblings.
func TestDynamicShardedRebuildIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	const S, d = 4, 6
	initial := vec.NewMatrix(120, d)
	for i := range initial.Data {
		initial.Data[i] = rng.NormFloat64()
	}
	di, err := core.NewDynamicIndexSharded(initial, core.Options{SVD: true}, 0.1, S, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := di.Rebuilds()
	for s, c := range start {
		if c != 1 {
			t.Fatalf("shard %d built %d times at init, want 1", s, c)
		}
	}

	rebuildEvents := 0
	mutate := func(id int, f func() error) {
		t.Helper()
		before := di.Rebuilds()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		after := di.Rebuilds()
		for s := 0; s < S; s++ {
			diff := after[s] - before[s]
			if diff < 0 || diff > 1 {
				t.Fatalf("shard %d rebuild count moved by %d in one update", s, diff)
			}
			if diff == 1 {
				rebuildEvents++
				if s != id%S {
					t.Fatalf("update to id %d (shard %d) rebuilt shard %d", id, id%S, s)
				}
			}
		}
	}

	nextID := 120
	dead := map[int]bool{}
	for step := 0; step < 200; step++ {
		if step%3 == 0 {
			// Delete a deterministically chosen live ID.
			id := (step * 7) % nextID
			if dead[id] {
				continue
			}
			dead[id] = true
			mutate(id, func() error { return di.Delete(id) })
			continue
		}
		item := make([]float64, d)
		for j := range item {
			item[j] = rng.NormFloat64()
		}
		id := nextID
		mutate(id, func() error {
			got, err := di.Add(item)
			if err == nil && got != id {
				t.Fatalf("Add returned id %d, want %d", got, id)
			}
			return err
		})
		nextID++
	}
	if rebuildEvents == 0 {
		t.Fatal("workload never triggered a rebuild; the isolation property was not exercised")
	}
}

// TestDynamicStatsPerQuery: a fresh sink per query holds that query's
// counters alone — a different query in between leaks nothing into the
// repeat, which counts exactly what the first run did.
func TestDynamicStatsPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(20260810))
	items, q := searchtest.RandomInstance(rng, 150, 8)
	for _, cfg := range []struct {
		name    string
		shards  int
		workers int
	}{{"monolithic", 1, 1}, {"sharded", 3, 1}} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			di, err := core.NewDynamicIndexSharded(items, core.Options{SVD: true, Int: true}, 0.25, cfg.shards, cfg.workers)
			if err != nil {
				t.Fatal(err)
			}
			_, first := searchtest.Counted(di, q, 5)
			if first.Scanned == 0 && first.PrunedByLength == 0 {
				t.Fatal("first query recorded no work")
			}
			// A different query in between must not leak into the repeat.
			q2 := make([]float64, len(q))
			for j := range q2 {
				q2[j] = rng.NormFloat64()
			}
			searchtest.Counted(di, q2, 9)
			if _, again := searchtest.Counted(di, q, 5); again != first {
				t.Fatalf("a fresh sink counted %+v for the repeat, %+v for the first run", again, first)
			}
		})
	}
}

// TestDynamicShardedCancellation runs the cancellation property suite
// against the sharded dynamic index for every harness shard count.
func TestDynamicShardedCancellation(t *testing.T) {
	searchtest.CheckShardedCancellation(t, func(items *vec.Matrix, shards int) search.Searcher {
		di, err := core.NewDynamicIndexSharded(items, mustOptions(t, "F-SIR"), 0.25, shards, 2)
		if err != nil {
			t.Fatalf("NewDynamicIndexSharded: %v", err)
		}
		return di
	}, "dynamic")
}
