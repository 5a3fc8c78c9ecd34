package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestRetrieverCancellation runs the shared cancellation property suite
// over every FEXIPRO variant: a scan cut short by an injected fault must
// never be flagged exact, and an unfired fault must leave results
// bitwise identical to the uncancelled baseline.
func TestRetrieverCancellation(t *testing.T) {
	for _, variant := range allVariants {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			searchtest.CheckCancellation(t, func(items *vec.Matrix) search.Searcher {
				idx, err := core.NewIndex(items, mustOptions(t, variant))
				if err != nil {
					t.Fatalf("NewIndex(%s): %v", variant, err)
				}
				return core.NewRetriever(idx)
			}, "Retriever/"+variant)
		})
	}
}

func mustOptions(t *testing.T, variant string) core.Options {
	t.Helper()
	opts, err := core.OptionsForVariant(variant)
	if err != nil {
		t.Fatalf("OptionsForVariant(%s): %v", variant, err)
	}
	return opts
}

// TestDynamicCancellation covers the two-tier searcher: cancellation can
// land in the delta scan or inside the main retriever, and both must
// surface as ErrDeadline with valid partial results. The battery runs on
// an index whose rows sit in its main index, and then, at S = 1 and
// sharded, on one whose rows sit in its delta buffers: built from
// CancelInstance's first row with a rebuild fraction no add reaches, each
// shard's main index holds the shard's first row (the first add to an
// empty shard builds it) and scanDelta scans the rest. The battery alone
// would pass a delta scan that never polls, since the one-row main scan's
// poll cancels it right after the whole buffer, so an unfaulted query
// there must also poll at least once per search.CheckStride rows it scans.
func TestDynamicCancellation(t *testing.T) {
	searchtest.CheckCancellation(t, func(items *vec.Matrix) search.Searcher {
		di, err := core.NewDynamicIndex(items, mustOptions(t, "F-SIR"), 0.25)
		if err != nil {
			t.Fatalf("NewDynamicIndex: %v", err)
		}
		return di
	}, "Dynamic/F-SIR")

	for _, shards := range []int{1, 2, 3, 7} {
		label := fmt.Sprintf("Dynamic/delta S=%d", shards)
		build := func(items *vec.Matrix) search.Searcher {
			di, err := core.NewDynamicIndexSharded(items.Slice(0, 1), mustOptions(t, "F-SIR"), 1e9, shards, 2)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for id := 1; id < items.Rows; id++ {
				if _, err := di.Add(items.Row(id)); err != nil {
					t.Fatalf("%s: Add %d: %v", label, id, err)
				}
			}
			for s, n := range di.Rebuilds() {
				if n != 1 {
					t.Fatalf("%s: shard %d built its main index %d times, want once", label, s, n)
				}
			}
			return di
		}
		searchtest.CheckCancellation(t, build, label)

		items, q := searchtest.CancelInstance()
		probe := faults.NewRegistry(17).Enable(faults.SiteScan, faults.Plan{})
		var st search.Stats
		if _, err := build(items).SearchContext(obs.WithStats(probe.Context(context.Background()), &st), q, 10); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if polls := int(probe.Counts().Items); polls*search.CheckStride < st.Scanned {
			t.Fatalf("%s: %d polls over %d scanned rows, want one per %d rows at least", label, polls, st.Scanned, search.CheckStride)
		}
	}
}

// TestDynamicHookSurvivesRebuild: a scan fault is the query's context
// (faults.Hook.Context), so no rebuild can lose it. The same context
// cancels a search before the main index is rebuilt and, right after an
// update rebuilds it, inside the rebuilt main scan: the rebuild folds the
// delta buffer in, so the first poll that search makes is the new main's.
func TestDynamicHookSurvivesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	items, q := searchtest.RandomInstance(rng, 200, 8)
	di, err := core.NewDynamicIndex(items, mustOptions(t, "F-SIR"), 0.1)
	if err != nil {
		t.Fatalf("NewDynamicIndex: %v", err)
	}
	hook := faults.NewRegistry(31).Enable(faults.SiteScan, faults.Plan{CancelAtItem: 1})
	ctx := hook.Context(context.Background())
	if _, err := di.SearchContext(ctx, q, 5); !errors.Is(err, search.ErrDeadline) {
		t.Fatalf("pre-rebuild SearchContext error = %v, want ErrDeadline", err)
	}

	// Mutate past the 10% rebuild fraction, and stop at the update that
	// rebuilds the main index.
	rebuilt := func() bool { return di.Rebuilds()[0] > 1 }
	for i := 0; !rebuilt(); i++ {
		if i == 100 {
			t.Fatal("100 updates triggered no rebuild")
		}
		row := make([]float64, 8)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		id, err := di.Add(row)
		if err != nil {
			t.Fatalf("Add #%d: %v", i, err)
		}
		if i%2 == 0 && !rebuilt() {
			if err := di.Delete(id); err != nil {
				t.Fatalf("Delete %d: %v", id, err)
			}
		}
	}

	before := hook.Counts().Cancels
	_, err = di.SearchContext(ctx, q, 5)
	if !errors.Is(err, search.ErrDeadline) {
		t.Fatalf("post-rebuild SearchContext error = %v, want ErrDeadline", err)
	}
	if hook.Counts().Cancels <= before {
		t.Fatal("fault hook did not fire in the rebuilt main scan")
	}
}

// TestCancelledAboveNeverExact is the SearchAboveContext analogue of the
// top-k property: a threshold scan cut short must not return nil error,
// its partial results must all be genuine above-threshold hits, and some
// trial cuts it short after it has found hits. The cancel points spread
// over the polls an unfaulted scan makes.
func TestCancelledAboveNeverExact(t *testing.T) {
	items, q := searchtest.CancelInstance()
	idx, err := core.NewIndex(items, mustOptions(t, "F-SIR"))
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	r := newAboveSearcher(idx)
	const threshold = 0.5

	full, err := r.SearchAboveContext(context.Background(), q, threshold)
	if err != nil {
		t.Fatalf("uncancelled SearchAboveContext error: %v", err)
	}

	probe := faults.NewRegistry(77).Enable(faults.SiteScan, faults.Plan{})
	if _, err := r.SearchAboveContext(probe.Context(context.Background()), q, threshold); err != nil {
		t.Fatalf("SearchAboveContext under a fault-free hook: %v", err)
	}
	const trials = 20
	polls, partial := int(probe.Counts().Items), 0
	for trial := 0; trial < trials; trial++ {
		cancelAt := 1 + trial*(polls+1)/trials
		hook := faults.NewRegistry(77+int64(trial)).Enable(faults.SiteScan, faults.Plan{CancelAtItem: cancelAt})
		res, err := r.SearchAboveContext(hook.Context(context.Background()), q, threshold)

		if hook.Counts().Cancels > 0 {
			if !errors.Is(err, search.ErrDeadline) {
				t.Fatalf("cancel at poll %d: err = %v, want ErrDeadline", cancelAt, err)
			}
			if len(res) > len(full) {
				t.Fatalf("cancel at poll %d: partial run returned %d hits, full run only %d",
					cancelAt, len(res), len(full))
			}
			if len(res) > 0 {
				partial++
			}
		} else if err != nil {
			t.Fatalf("unfired cancel at poll %d: err = %v", cancelAt, err)
		}
		for i, hit := range res {
			actual := vec.Dot(q, items.Row(hit.ID))
			if diff := actual - hit.Score; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("cancel at poll %d: hit %d score %v, true product %v", cancelAt, hit.ID, hit.Score, actual)
			}
			if actual < threshold {
				t.Fatalf("cancel at poll %d: hit %d score %v below threshold", cancelAt, hit.ID, actual)
			}
			if i > 0 && res[i-1].Score < hit.Score {
				t.Fatalf("cancel at poll %d: results unsorted at rank %d", cancelAt, i)
			}
		}
	}
	if partial == 0 {
		t.Fatalf("no trial cut the scan short after it had found hits (%d polls unfaulted)", polls)
	}
}
