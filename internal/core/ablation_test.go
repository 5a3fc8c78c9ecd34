package core_test

import (
	"io"
	"math/rand"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/searchtest"
)

// Every ablation combination must remain EXACT — the switches trade
// speed, never correctness — must count every row once, as the registry
// holds every method to, and must not be persistable: a snapshot has no
// field that could tell a reader how the index was built.
func TestAblationsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	items, _ := searchtest.RandomInstance(rng, 500, 16)
	base := core.Options{SVD: true, Int: true, Reduction: true}
	for name, ab := range map[string]core.Ablation{
		"global-int-scaling": {GlobalIntScaling: true},
		"reduction-first":    {ReductionFirst: true},
		"both":               {GlobalIntScaling: true, ReductionFirst: true},
	} {
		idx, err := core.NewAblationIndex(items, base, ab)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := core.NewRetriever(idx)
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, 16)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			res, st := searchtest.Counted(r, q, 5)
			searchtest.CheckTopK(t, items, q, 5, res, name)
			// Every row is cut by the length bound or scanned, and a
			// scanned row is pruned by exactly one stage or multiplied out.
			if n := items.Rows; st.Scanned+st.PrunedByLength != n || st.FullProducts+st.TotalPruned() != n {
				t.Fatalf("%s: %+v does not account for %d rows once each", name, st, n)
			}
		}
		if err := idx.Save(io.Discard); err == nil {
			t.Fatalf("%s: Save wrote an ablation index", name)
		}
	}
}

// Per-part scaling (Eq. 7) must not be weaker than global scaling
// (Eq. 4) at pruning, aggregated over a query batch.
func TestPerPartScalingPrunesAtLeastAsWell(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	items, _ := searchtest.RandomInstance(rng, 4000, 24)
	base := core.Options{SVD: true, Int: true}
	perPart, err := core.NewIndex(items, base)
	if err != nil {
		t.Fatal(err)
	}
	global, err := core.NewAblationIndex(items, base, core.Ablation{GlobalIntScaling: true})
	if err != nil {
		t.Fatal(err)
	}
	rp, rg := core.NewRetriever(perPart), core.NewRetriever(global)
	var fullPer, fullGlob int
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, 24)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		rp.Search(q, 1)
		rg.Search(q, 1)
		fullPer += rp.Stats().FullProducts
		fullGlob += rg.Stats().FullProducts
	}
	if fullPer > fullGlob {
		t.Fatalf("per-part scaling computed MORE full products (%d) than global (%d)", fullPer, fullGlob)
	}
}
