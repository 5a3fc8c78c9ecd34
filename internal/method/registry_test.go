package method_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fexipro/internal/method"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestEveryMethodBuildsAndSearches is the registry-driven battery: a
// method is tested by being registered. Every name in method.Names()
// runs, through its one factory and the engine, the exactness grid and
// the degenerate inputs against Naive at one shard, bit-identity of
// S ∈ {2, 3, 7} against S = 1, the cancellation contract at
// S ∈ {1, 2, 3, 7} (the approximate PCATree's at S = 1 is its package's),
// the counter contract below (k ≤ 0 included), the counter accounting,
// and above-t against Naive's own above-t loop at S ∈ {1, 2, 3, 7}. The approximate PCATree is held to everything but
// the comparisons with Naive.
func TestEveryMethodBuildsAndSearches(t *testing.T) {
	for _, name := range method.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			d, _ := method.Lookup(name)
			// One build per (items, shards): the top-k and the above-t
			// cancellation suites share searchtest.CancelInstance.
			type key struct {
				items  *vec.Matrix
				shards int
			}
			built := map[key]search.Searcher{}
			build := searchtest.Builder(func(items *vec.Matrix, shards int) search.Searcher {
				if e, ok := built[key{items, shards}]; ok {
					return e
				}
				e, err := method.Sharded(name, items, method.BuildOptions{}, shards, 2)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", name, shards, err)
				}
				built[key{items, shards}] = e
				return e
			})
			if d.Exact {
				searchtest.CheckSearcher(t, build.Sequential, name)
				searchtest.CheckSearcherEdgeCases(t, build.Sequential, name)
				searchtest.CheckCancellation(t, build.Sequential, name+"/S=1")
				searchtest.CheckShardedCancellation(t, build, name)
			} else {
				// An approximate descent visits one root-to-leaf path, at
				// one shard fewer nodes than a poll stride, so no fault can
				// land in it after rows were offered; the method's own
				// package runs S = 1 with the descent spilling.
				searchtest.CheckShardedCancellationApprox(t, build, name)
			}
			searchtest.CheckSharded(t, build, name)
			checkCounters(t, name)
			if d.Exact {
				checkRowsCountedOnce(t, build, name)
				searchtest.CheckAbove(t, build, name)
			}
		})
	}
}

// checkCounters is the counter contract at S ∈ {1, 2, 3, 7}: a query adds
// to the sink its context carries (obs.WithStats) the sum of what its
// shards report to the engine's observer; two queries into one sink hold
// the sum of their one-query sinks; k ≤ 0 answers and adds nothing; and a
// context with no sink gets the same answer. (That a query cut short adds
// the work it did is the cancellation battery's to check.)
func checkCounters(t *testing.T, name string) {
	t.Helper()
	const n = 300
	rng := rand.New(rand.NewSource(31))
	items, q := searchtest.RandomInstance(rng, n, 12)
	_, q2 := searchtest.RandomInstance(rng, 1, 12)
	for _, shards := range []int{1, 2, 3, 7} {
		label := fmt.Sprintf("%s S=%d", name, shards)
		e, err := method.Sharded(name, items, method.BuildOptions{}, shards, 2)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var mu sync.Mutex
		var observed search.Stats
		e.SetObserver(func(_ int, _ float64, st search.Stats) {
			mu.Lock()
			defer mu.Unlock()
			observed.Add(st)
		})
		res, st := searchtest.Counted(e, q, 5)
		if st == (search.Stats{}) || st != observed {
			t.Fatalf("%s: the sink holds %+v, the shards reported %+v", label, st, observed)
		}
		if bare, err := e.SearchContext(context.Background(), q, 5); err != nil || !slices.Equal(bare, res) {
			t.Fatalf("%s: with no sink %v (%v), with one %v", label, bare, err, res)
		}
		for _, k := range []int{-1, 0} {
			if res, st := searchtest.Counted(e, q, k); len(res) != 0 || st != (search.Stats{}) {
				t.Fatalf("%s k=%d: %d results, %+v in the sink; want none and zero", label, k, len(res), st)
			}
		}
		// One worker: the shards and their shared threshold run in a fixed
		// order, so a query's counters repeat exactly.
		seq, err := method.Sharded(name, items, method.BuildOptions{}, shards, 1)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		_, want := searchtest.Counted(seq, q, 5)
		_, second := searchtest.Counted(seq, q2, 5)
		want.Add(second)
		var both search.Stats
		ctx := obs.WithStats(context.Background(), &both)
		for _, x := range [][]float64{q, q2} {
			if _, err := seq.SearchContext(ctx, x, 5); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		if both != want {
			t.Fatalf("%s: two queries into one sink %+v, the sum of their own sinks %+v", label, both, want)
		}
	}
}

// checkRowsCountedOnce: an exact method's counters account for every
// row exactly once at every shard count — reached by the scan or cut by
// the length bound, and then either fully multiplied or pruned — for a
// random query and for the zero query, which every row ties. (The
// approximate PCATree only ever sees the leaves on its descent path.)
func checkRowsCountedOnce(t *testing.T, build searchtest.Builder, label string) {
	t.Helper()
	const n = 300
	items, q := searchtest.RandomInstance(rand.New(rand.NewSource(29)), n, 12)
	for _, shards := range []int{1, 2, 3, 7} {
		for _, query := range []struct {
			name string
			q    []float64
		}{{"random", q}, {"zero", make([]float64, len(q))}} {
			_, st := searchtest.Counted(build(items, shards), query.q, 5)
			if st.Scanned+st.PrunedByLength != n || st.FullProducts+st.TotalPruned() != n {
				t.Fatalf("%s S=%d, %s query: %+v does not account for %d rows once each", label, shards, query.name, st, n)
			}
		}
	}
}
