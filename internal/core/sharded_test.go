package core_test

import (
	"math/rand"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/engine"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func buildShardedVariant(t testing.TB, items *vec.Matrix, variant string, shards int) *engine.Engine {
	t.Helper()
	opts, err := core.OptionsForVariant(variant)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.NewIndex(items, opts)
	if err != nil {
		t.Fatalf("%s: %v", variant, err)
	}
	return engine.New(core.NewSharded(idx, shards), 2)
}

// TestShardedVariantsBitExact is the ISSUE's bit-exactness harness for
// the FEXIPRO variants: S ∈ {2, 3, 7} through the engine must return
// IDs, scores, and tie order identical to S=1, for every technique
// combination, including tie-heavy degenerate instances.
func TestShardedVariantsBitExact(t *testing.T) {
	for _, variant := range allVariants {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.Searcher {
				return buildShardedVariant(t, items, variant, shards)
			}, variant)
		})
	}
}

// TestShardedMatchesLegacyRetriever pins the refactor seam: the engine
// path (any shard count) must return results identical to the plain
// single-scan Retriever over the same index — the pre-sharding code
// path that scanRange was extracted from.
func TestShardedMatchesLegacyRetriever(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	items, _ := searchtest.RandomInstance(rng, 350, 20)
	for _, variant := range allVariants {
		opts, err := core.OptionsForVariant(variant)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := core.NewIndex(items, opts)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		legacy := core.NewRetriever(idx)
		for _, shards := range []int{1, 4} {
			eng := engine.New(core.NewSharded(idx, shards), 2)
			for trial := 0; trial < 3; trial++ {
				q := make([]float64, items.Cols)
				for j := range q {
					q[j] = rng.NormFloat64()
				}
				want := legacy.Search(q, 9)
				got := eng.Search(q, 9)
				if len(got) != len(want) {
					t.Fatalf("%s S=%d: %d results, want %d", variant, shards, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s S=%d rank %d: engine %+v, legacy %+v", variant, shards, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestShardedCancellation: cancelled sharded scans return
// ErrDeadline-flagged partials whose scores are true inner products,
// for every shard count in the harness grid.
func TestShardedCancellation(t *testing.T) {
	searchtest.CheckShardedCancellation(t, func(items *vec.Matrix, shards int) search.Searcher {
		return buildShardedVariant(t, items, "F-SIR", shards)
	}, "core/F-SIR")
}

// TestShardedStatsAggregate: the counters the engine adds to the sink
// must account for every row exactly once.
func TestShardedStatsAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	items, q := searchtest.RandomInstance(rng, 500, 16)
	_, st := searchtest.Counted(buildShardedVariant(t, items, "F-SIR", 5), q, 10)
	if got := st.Scanned + st.PrunedByLength; got != 500 {
		t.Fatalf("Scanned+PrunedByLength = %d, want 500 (every row accounted once)", got)
	}
	if st.FullProducts+st.TotalPruned() != 500 {
		t.Fatalf("FullProducts+TotalPruned = %d, want 500", st.FullProducts+st.TotalPruned())
	}
}
