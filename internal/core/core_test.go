package core_test

import (
	"math/rand"
	"strings"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// allVariants covers every technique combination the paper evaluates,
// plus the bare framework.
var allVariants = []string{"F", "F-S", "F-I", "F-SI", "F-SR", "F-SIR", "F-R", "F-IR"}

func buildVariant(t testing.TB, items *vec.Matrix, variant string) *core.Retriever {
	opts, err := core.OptionsForVariant(variant)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.NewIndex(items, opts)
	if err != nil {
		t.Fatalf("%s: %v", variant, err)
	}
	return core.NewRetriever(idx)
}

func TestAllVariantsExact(t *testing.T) {
	for _, variant := range allVariants {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			searchtest.CheckSearcher(t, func(items *vec.Matrix) searchtest.FaultSearcher {
				return buildVariant(t, items, variant)
			}, variant)
		})
	}
}

func TestAllVariantsEdgeCases(t *testing.T) {
	for _, variant := range allVariants {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			searchtest.CheckSearcherEdgeCases(t, func(items *vec.Matrix) searchtest.FaultSearcher {
				return buildVariant(t, items, variant)
			}, variant)
		})
	}
}

// Exactness must hold across the ρ and e parameter grids the paper sweeps
// (Figures 10 and 11).
func TestExactAcrossParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	items, _ := searchtest.RandomInstance(rng, 400, 30)
	queries := make([][]float64, 5)
	for i := range queries {
		q := make([]float64, 30)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries[i] = q
	}
	for _, rho := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		for _, e := range []float64{10, 100, 127} {
			idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true, Rho: rho, E: e})
			if err != nil {
				t.Fatal(err)
			}
			r := core.NewRetriever(idx)
			for _, q := range queries {
				searchtest.CheckTopK(t, items, q, 10, r.Search(q, 10), "param-grid")
			}
		}
	}
}

func TestExactAcrossW(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	items, _ := searchtest.RandomInstance(rng, 300, 20)
	for _, w := range []int{1, 2, 5, 10, 19, 20, 50} {
		idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true, W: w})
		if err != nil {
			t.Fatal(err)
		}
		r := core.NewRetriever(idx)
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, 20)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			searchtest.CheckTopK(t, items, q, 5, r.Search(q, 5), "w-grid")
		}
	}
}

func TestVariantParsing(t *testing.T) {
	for name, want := range map[string]string{
		"F-S": "F-S", "F-I": "F-I", "F-SI": "F-SI", "F-SR": "F-SR", "F-SIR": "F-SIR",
		"f": "F", "sir": "F-SIR", "F-IR": "F-IR", "F-R": "F-R", "f-si": "F-SI",
	} {
		got, err := core.OptionsForVariant(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Variant() != want || got != (core.Options{SVD: got.SVD, Int: got.Int, Reduction: got.Reduction}) {
			t.Fatalf("%s parsed to %+v (%s), want %s with default parameters", name, got, got.Variant(), want)
		}
	}
	// F-SRI is the name of the other check order, not a spelling of F-SIR;
	// the rest are empty, repeated, unordered or foreign letters.
	for _, name := range []string{"", "F-", "F-SRI", "F-SS", "-", "F-F", "FSIR", "F-X", "F-RS", "F-SIRS"} {
		if got, err := core.OptionsForVariant(name); err == nil || !strings.Contains(err.Error(), "unknown variant") {
			t.Fatalf("%q parsed to %+v, err = %v; want an unknown-variant error", name, got, err)
		}
	}
	if got := (core.Options{}).Variant(); got != "F" {
		t.Fatalf("Variant() = %q", got)
	}
}

func TestNewIndexRejectsEmpty(t *testing.T) {
	if _, err := core.NewIndex(vec.NewMatrix(0, 5), core.Options{}); err == nil {
		t.Fatal("expected error for zero items")
	}
	if _, err := core.NewIndex(vec.NewMatrix(5, 0), core.Options{}); err == nil {
		t.Fatal("expected error for zero dims")
	}
}

func TestSearchZeroK(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	items, q := searchtest.RandomInstance(rng, 20, 4)
	r := buildVariant(t, items, "F-SIR")
	if got := r.Search(q, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestWSelectionFromRho(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Strongly decaying spectrum: w should be much smaller than d.
	d := 40
	items := vec.NewMatrix(600, d)
	for i := 0; i < 600; i++ {
		for j := 0; j < d; j++ {
			items.Set(i, j, rng.NormFloat64()*pow(0.75, j))
		}
	}
	idx, err := core.NewIndex(items, core.Options{SVD: true, Rho: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if idx.W() < 1 || idx.W() > d/2 {
		t.Fatalf("w = %d for a sharply decaying spectrum (d=%d)", idx.W(), d)
	}
	// Flat spectrum: w should approach ρ·d.
	flat := vec.NewMatrix(600, d)
	for i := range flat.Data {
		flat.Data[i] = rng.NormFloat64()
	}
	idxFlat, err := core.NewIndex(flat, core.Options{SVD: true, Rho: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if idxFlat.W() < d/2 {
		t.Fatalf("flat spectrum w = %d, expected near %0.0f", idxFlat.W(), 0.7*float64(d))
	}
}

func pow(b float64, e int) float64 {
	out := 1.0
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// The pruning cascade must actually fire: on skewed data F-SIR should
// compute far fewer full products than items scanned by Naive, and each
// added technique must not increase the full-product count.
func TestPruningPowerOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	items, _ := searchtest.RandomInstance(rng, 5000, 32)
	queries := make([][]float64, 20)
	for i := range queries {
		q := make([]float64, 32)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries[i] = q
	}

	full := map[string]int{}
	for _, variant := range []string{"F-S", "F-SI", "F-SIR"} {
		r := buildVariant(t, items, variant)
		total := 0
		for _, q := range queries {
			r.Search(q, 1)
			total += r.Stats().FullProducts
		}
		full[variant] = total
	}
	if full["F-S"] >= 5000*len(queries) {
		t.Errorf("F-S pruned nothing: %d full products", full["F-S"])
	}
	if full["F-SI"] > full["F-S"] {
		t.Errorf("F-SI full products (%d) exceed F-S (%d)", full["F-SI"], full["F-S"])
	}
	if full["F-SIR"] > full["F-SI"] {
		t.Errorf("F-SIR full products (%d) exceed F-SI (%d)", full["F-SIR"], full["F-SI"])
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	items, q := searchtest.RandomInstance(rng, 1000, 16)
	r := buildVariant(t, items, "F-SIR")
	r.Search(q, 3)
	st := r.Stats()
	accounted := st.Scanned + st.PrunedByLength
	if accounted != 1000 {
		t.Fatalf("scanned(%d) + length-pruned(%d) = %d, want 1000", st.Scanned, st.PrunedByLength, accounted)
	}
	inner := st.PrunedByIntHead + st.PrunedByIntFull + st.PrunedByIncremental + st.PrunedByMonotone + st.FullProducts
	if inner != st.Scanned {
		t.Fatalf("per-candidate outcomes %d != scanned %d (%+v)", inner, st.Scanned, st)
	}
}

// Concurrent retrievers over one shared index must be race-free and
// return identical results (run with -race).
func TestConcurrentRetrievers(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	items, _ := searchtest.RandomInstance(rng, 500, 16)
	idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, 16)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	want := core.NewRetriever(idx).Search(q, 5)

	done := make(chan []int, 8)
	for g := 0; g < 8; g++ {
		go func() {
			r := core.NewRetriever(idx)
			ids := []int{}
			for rep := 0; rep < 50; rep++ {
				for _, res := range r.Search(q, 5) {
					ids = append(ids, res.ID)
				}
			}
			done <- ids
		}()
	}
	for g := 0; g < 8; g++ {
		ids := <-done
		for i := 0; i < 5; i++ {
			if ids[i] != want[i].ID {
				t.Fatalf("goroutine result mismatch: %v vs %v", ids[:5], want)
			}
		}
	}
}
