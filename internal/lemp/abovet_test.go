package lemp_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fexipro/internal/lemp"
	"fexipro/internal/obs"
	"fexipro/internal/scan"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func TestSearchAboveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	items, _ := searchtest.RandomInstance(rng, 700, 12)
	idx := lemp.New(items, lemp.Options{BucketSize: 64})
	naive := scan.NewNaive(items)
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, 12)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		ranked := naive.Search(q, 700)
		for _, pick := range []int{0, 10, 300} {
			thr := ranked[pick].Score - 1e-9*(1+math.Abs(ranked[pick].Score))
			got := idx.SearchAbove(q, thr)
			want := naive.SearchAbove(q, thr)
			if len(got) != len(want) {
				t.Fatalf("t=%v: got %d, want %d", thr, len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].Score-want[i].Score) > 1e-7*(1+math.Abs(want[i].Score)) {
					t.Fatalf("rank %d: %v vs %v", i, got[i], want[i])
				}
			}
		}
	}
}

func TestAboveJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	items, _ := searchtest.RandomInstance(rng, 400, 10)
	queries := vec.NewMatrix(8, 10)
	for i := range queries.Data {
		queries.Data[i] = rng.NormFloat64()
	}
	idx := lemp.New(items, lemp.Options{})
	naive := scan.NewNaive(items)
	all := idx.AboveJoin(queries, 2.0)
	for qi := 0; qi < queries.Rows; qi++ {
		want := naive.SearchAbove(queries.Row(qi), 2.0)
		if len(all[qi]) != len(want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(all[qi]), len(want))
		}
	}
}

func TestSearchAboveZeroQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	items, _ := searchtest.RandomInstance(rng, 50, 6)
	idx := lemp.New(items, lemp.Options{})
	zq := make([]float64, 6)
	if got := idx.SearchAbove(zq, 0); len(got) != 50 {
		t.Fatalf("zero query with t=0 should return all 50 items, got %d", len(got))
	}
	if got := idx.SearchAbove(zq, 0.5); len(got) != 0 {
		t.Fatalf("zero query with t>0 should return nothing, got %d", len(got))
	}
}

func TestSearchAbovePrunesBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	items, q := searchtest.RandomInstance(rng, 5000, 12)
	idx := lemp.New(items, lemp.Options{})
	top := scan.NewNaive(items).Search(q, 1)
	var st search.Stats
	if _, err := idx.SearchAboveContext(obs.WithStats(context.Background(), &st), q, top[0].Score*0.95); err != nil {
		t.Fatal(err)
	}
	if st.PrunedByLength == 0 {
		t.Error("above-t never pruned by bucket length")
	}
}
