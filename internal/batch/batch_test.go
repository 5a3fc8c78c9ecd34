package batch_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"fexipro/internal/batch"
	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func randomQueries(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMiniBatchMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	items, _ := searchtest.RandomInstance(rng, 700, 18)
	queries := randomQueries(rng, 33, 18)
	for _, bs := range []int{1, 7, 100} {
		for _, workers := range []int{1, 4} {
			mb := batch.New(items, batch.Options{BatchSize: bs, Workers: workers})
			all := mb.TopKAll(queries, 6)
			if len(all) != queries.Rows {
				t.Fatalf("bs=%d workers=%d: %d result lists", bs, workers, len(all))
			}
			for qi := 0; qi < queries.Rows; qi++ {
				searchtest.CheckTopK(t, items, queries.Row(qi), 6, all[qi], "minibatch")
			}
		}
	}
}

func TestMiniBatchBlockingGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	items, _ := searchtest.RandomInstance(rng, 300, 25)
	queries := randomQueries(rng, 9, 25)
	for _, bk := range []int{1, 8, 25, 100} {
		for _, bn := range []int{1, 17, 300, 1000} {
			mb := batch.New(items, batch.Options{BatchSize: 4, BlockK: bk, BlockN: bn})
			all := mb.TopKAll(queries, 3)
			for qi := 0; qi < queries.Rows; qi++ {
				searchtest.CheckTopK(t, items, queries.Row(qi), 3, all[qi], "minibatch/blocking")
			}
		}
	}
}

func TestMiniBatchKExceedsItems(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	items, _ := searchtest.RandomInstance(rng, 5, 4)
	queries := randomQueries(rng, 2, 4)
	mb := batch.New(items, batch.Options{})
	all := mb.TopKAll(queries, 50)
	for _, res := range all {
		if len(res) != 5 {
			t.Fatalf("got %d results, want 5", len(res))
		}
	}
}

func TestMiniBatchPanicsOnDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	items, _ := searchtest.RandomInstance(rng, 5, 4)
	mb := batch.New(items, batch.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mb.TopKAll(vec.NewMatrix(1, 3), 1)
}

// TestMiniBatchCancellation: a context cancelled after the first batch —
// its first poll, which comes before the second batch — leaves the first
// batch's lists exact, every later slot nil, and an ErrDeadline-wrapping
// error.
func TestMiniBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	items, _ := searchtest.RandomInstance(rng, 200, 8)
	queries := randomQueries(rng, 10, 8)
	const batchSize, k = 4, 3
	mb := batch.New(items, batch.Options{BatchSize: batchSize, Workers: 1})
	hook := faults.NewRegistry(84).Enable(faults.SiteScan, faults.Plan{CancelAtItem: 1})
	all, err := mb.TopKAllContext(hook.Context(context.Background()), queries, k)
	if !errors.Is(err, search.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if len(all) != queries.Rows {
		t.Fatalf("%d result lists, want %d", len(all), queries.Rows)
	}
	for qi := 0; qi < batchSize; qi++ {
		searchtest.CheckTopK(t, items, queries.Row(qi), k, all[qi], "minibatch/first batch")
	}
	for qi := batchSize; qi < queries.Rows; qi++ {
		if all[qi] != nil {
			t.Fatalf("query %d after the cancelled poll has results %v", qi, all[qi])
		}
	}
}
