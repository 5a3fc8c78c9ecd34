package core_test

import (
	"context"
	"math/rand"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestBatchTopKMatchesSingle: every list of a batch is the single query's,
// and the batch's sink — engine.Batch gives each worker's chunk a sink of
// its own and adds them to the caller's — holds the sum of the queries'
// own sinks.
func TestBatchTopKMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	items, _ := searchtest.RandomInstance(rng, 600, 14)
	queries := vec.NewMatrix(37, 14)
	for i := range queries.Data {
		queries.Data[i] = rng.NormFloat64()
	}
	idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	single := core.NewRetriever(idx)
	var wantSt search.Stats
	for qi := 0; qi < queries.Rows; qi++ {
		_, st := searchtest.Counted(single, queries.Row(qi), 6)
		wantSt.Add(st)
	}
	for _, workers := range []int{0, 1, 3, 8} {
		var st search.Stats
		all, err := core.BatchTopKContext(obs.WithStats(context.Background(), &st), idx, queries, 6, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 37 {
			t.Fatalf("workers=%d: %d lists", workers, len(all))
		}
		if st != wantSt {
			t.Fatalf("workers=%d: the batch's sink holds %+v, its queries' own sinks add up to %+v", workers, st, wantSt)
		}
		for qi := 0; qi < queries.Rows; qi++ {
			want := single.Search(queries.Row(qi), 6)
			got := all[qi]
			if len(got) != len(want) {
				t.Fatalf("workers=%d q=%d: %d vs %d results", workers, qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d q=%d rank %d: %v vs %v", workers, qi, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBatchTopKDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	items, _ := searchtest.RandomInstance(rng, 50, 6)
	idx, err := core.NewIndex(items, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.BatchTopK(idx, vec.NewMatrix(3, 5), 2, 1); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

func TestBatchTopKEmptyQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	items, _ := searchtest.RandomInstance(rng, 50, 6)
	idx, err := core.NewIndex(items, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := core.BatchTopK(idx, vec.NewMatrix(0, 6), 2, 4)
	if err != nil || len(all) != 0 {
		t.Fatalf("empty batch: %v, %v", all, err)
	}
}
