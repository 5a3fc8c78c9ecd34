package core_test

import (
	"math"
	"math/rand"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/scan"
	"fexipro/internal/searchtest"
)

func TestSearchAboveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, variant := range []string{"F", "F-S", "F-SI", "F-SIR"} {
		items, _ := searchtest.RandomInstance(rng, 800, 16)
		r := buildVariant(t, items, variant)
		naive := scan.NewNaive(items)
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, 16)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			// Pick thresholds spanning empty to large result sets. Nudge
			// each threshold just below a score boundary: a threshold
			// EXACTLY equal to some qᵀp is ill-posed under float64 (the
			// summation order perturbs the last bits), for this engine
			// and for any other.
			naiveAll := naive.Search(q, 800)
			for _, pick := range []int{0, 5, 50, 400} {
				thr := naiveAll[pick].Score - 1e-9*(1+math.Abs(naiveAll[pick].Score))
				got := r.SearchAbove(q, thr)
				want := naive.SearchAbove(q, thr)
				if len(got) != len(want) {
					t.Fatalf("%s t=%v: got %d results, want %d", variant, thr, len(got), len(want))
				}
				for i := range want {
					if math.Abs(got[i].Score-want[i].Score) > 1e-7*(1+math.Abs(want[i].Score)) {
						t.Fatalf("%s t=%v rank %d: %v vs %v", variant, thr, i, got[i], want[i])
					}
					if got[i].Score < thr-1e-9 {
						t.Fatalf("%s: returned item below threshold: %v < %v", variant, got[i].Score, thr)
					}
				}
			}
		}
	}
}

func TestSearchAboveHighThresholdEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	items, q := searchtest.RandomInstance(rng, 200, 8)
	r := buildVariant(t, items, "F-SIR")
	if got := r.SearchAbove(q, 1e18); len(got) != 0 {
		t.Fatalf("expected empty result, got %d", len(got))
	}
	st := r.Stats()
	if st.Scanned != 0 {
		t.Fatalf("high threshold should terminate immediately, scanned %d", st.Scanned)
	}
}

func TestSearchAboveMinusInfReturnsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	items, q := searchtest.RandomInstance(rng, 150, 6)
	r := buildVariant(t, items, "F-SIR")
	got := r.SearchAbove(q, math.Inf(-1))
	if len(got) != 150 {
		t.Fatalf("got %d results, want 150", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("results not sorted descending")
		}
	}
}

func TestSearchAbovePrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	items, q := searchtest.RandomInstance(rng, 5000, 16)
	r := buildVariant(t, items, "F-SIR")
	top := r.Search(q, 10)
	r.SearchAbove(q, top[9].Score)
	st := r.Stats()
	if st.FullProducts >= 5000 {
		t.Fatalf("above-t computed all %d products", st.FullProducts)
	}
}

func TestSearchAboveWithExplicitOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	items, q := searchtest.RandomInstance(rng, 300, 10)
	idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true, W: 3, E: 127})
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRetriever(idx)
	naive := scan.NewNaive(items)
	got := r.SearchAbove(q, 0)
	want := naive.SearchAbove(q, 0)
	if len(got) != len(want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
}
