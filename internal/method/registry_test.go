package method_test

import (
	"context"
	"math/rand"
	"testing"

	"fexipro/internal/method"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestEveryMethodBuildsAndSearches is the registry-driven battery: a
// method is tested by being registered. Every name in method.Names()
// runs, through its one factory and the engine, the exactness grid and
// the degenerate inputs against Naive at one shard, bit-identity of
// S ∈ {2, 3, 7} against S = 1, the cancellation contract at
// S ∈ {1, 2, 3, 7}, the defined answer for k ≤ 0, the counter
// accounting below, and above-t against Naive's own above-t loop at
// S ∈ {1, 2, 3, 7}. The approximate PCATree is held to everything but
// the comparisons with Naive.
func TestEveryMethodBuildsAndSearches(t *testing.T) {
	for _, name := range method.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			d, _ := method.Lookup(name)
			build := searchtest.Builder(func(items *vec.Matrix, shards int) searchtest.FaultSearcher {
				e, err := method.Sharded(name, items, method.BuildOptions{}, shards, 2)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", name, shards, err)
				}
				return e
			})
			if d.Exact {
				searchtest.CheckSearcher(t, build.Sequential, name)
				searchtest.CheckSearcherEdgeCases(t, build.Sequential, name)
				searchtest.CheckCancellation(t, build.Sequential, name+"/S=1")
				searchtest.CheckShardedCancellation(t, build, name)
			} else {
				searchtest.CheckCancellationApprox(t, build.Sequential, name+"/S=1")
				searchtest.CheckShardedCancellationApprox(t, build, name)
			}
			searchtest.CheckSharded(t, build, name)
			checkNonPositiveK(t, build, name)
			if d.Exact {
				checkRowsCountedOnce(t, build, name)
				searchtest.CheckAbove(t, build, name)
			}
		})
	}
}

// checkNonPositiveK: k ≤ 0 is a defined answer at every shard count —
// no results, nil error, zero counters — not a panic in a worker.
func checkNonPositiveK(t *testing.T, build searchtest.Builder, label string) {
	t.Helper()
	items, q := searchtest.RandomInstance(rand.New(rand.NewSource(23)), 50, 8)
	for _, shards := range []int{1, 3} {
		s := build(items, shards)
		for _, k := range []int{-1, 0} {
			res, err := s.SearchContext(context.Background(), q, k)
			if len(res) != 0 || err != nil || s.Stats() != (search.Stats{}) {
				t.Fatalf("%s S=%d k=%d: %d results, err %v, stats %+v; want none, nil, zero",
					label, shards, k, len(res), err, s.Stats())
			}
		}
	}
}

// checkRowsCountedOnce: an exact method's counters account for every
// row exactly once at every shard count — reached by the scan or cut by
// the length bound, and then either fully multiplied or pruned. (The
// approximate PCATree only ever sees the leaves on its descent path.)
func checkRowsCountedOnce(t *testing.T, build searchtest.Builder, label string) {
	t.Helper()
	const n = 300
	items, q := searchtest.RandomInstance(rand.New(rand.NewSource(29)), n, 12)
	for _, shards := range []int{1, 2, 3, 7} {
		s := build(items, shards)
		if _, err := s.SearchContext(context.Background(), q, 5); err != nil {
			t.Fatalf("%s S=%d: %v", label, shards, err)
		}
		st := s.Stats()
		if st.Scanned+st.PrunedByLength != n || st.FullProducts+st.TotalPruned() != n {
			t.Fatalf("%s S=%d: %+v does not account for %d rows once each", label, shards, st, n)
		}
	}
}
