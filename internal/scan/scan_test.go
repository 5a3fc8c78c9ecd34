package scan_test

import (
	"math/rand"
	"testing"

	"fexipro/internal/method"
	"fexipro/internal/scan"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func TestNaiveExact(t *testing.T) {
	searchtest.CheckSearcher(t, func(items *vec.Matrix) search.Searcher {
		return scan.NewNaive(items)
	}, "naive")
}

func TestNaiveStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items, q := searchtest.RandomInstance(rng, 100, 8)
	n := scan.NewNaive(items)
	n.Search(q, 5)
	st := n.Stats()
	if st.Scanned != 100 || st.FullProducts != 100 {
		t.Fatalf("stats = %+v, want 100 scanned/full", st)
	}
}

// newSS is the registry's SS at checking dimension w. The sorted scan of
// Algorithms 1 and 2 has no loop of its own in this package any more —
// the registry builds it as FEXIPRO variant F compared strictly — and
// these tests hold that build to what they held scan.SS to.
func newSS(items *vec.Matrix, w int) searchtest.FaultSearcher {
	s, err := method.Build("SS", items, method.BuildOptions{W: w})
	if err != nil {
		panic(err)
	}
	return s.(searchtest.FaultSearcher)
}

func TestSSExact(t *testing.T) {
	build := func(items *vec.Matrix) search.Searcher { return newSS(items, 0) }
	searchtest.CheckSearcher(t, build, "ss")
	searchtest.CheckSearcherEdgeCases(t, build, "ss")
}

func TestSSExactVariousW(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items, _ := searchtest.RandomInstance(rng, 200, 16)
	for _, w := range []int{1, 4, 8, 15, 16, 100} {
		s := newSS(items, w)
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, 16)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			searchtest.CheckTopK(t, items, q, 10, s.Search(q, 10), "ss/w")
		}
	}
}

func TestSSPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items, q := searchtest.RandomInstance(rng, 2000, 16)
	s := newSS(items, 0)
	s.Search(q, 1)
	st := s.Stats()
	if st.PrunedByLength == 0 {
		t.Error("SS never used Cauchy–Schwarz termination on skewed data")
	}
	if st.FullProducts >= 2000 {
		t.Errorf("SS computed %d full products of %d items — no pruning at all", st.FullProducts, 2000)
	}
}

func TestSSLExact(t *testing.T) {
	searchtest.CheckSearcher(t, func(items *vec.Matrix) search.Searcher {
		return scan.NewSSL(items, scan.SSLOptions{})
	}, "ssl")
	searchtest.CheckSearcherEdgeCases(t, func(items *vec.Matrix) search.Searcher {
		return scan.NewSSL(items, scan.SSLOptions{})
	}, "ssl")
}

func TestSSLExactWithTuning(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items, _ := searchtest.RandomInstance(rng, 500, 24)
	samples := vec.NewMatrix(10, 24)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()
	}
	s := scan.NewSSL(items, scan.SSLOptions{SampleQueries: samples})
	if s.W() < 1 || s.W() >= 24 {
		t.Fatalf("tuned w = %d out of range", s.W())
	}
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, 24)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		searchtest.CheckTopK(t, items, q, 5, s.Search(q, 5), "ssl/tuned")
	}
}

func TestSSLPrunesMoreThanNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items, q := searchtest.RandomInstance(rng, 3000, 16)
	s := scan.NewSSL(items, scan.SSLOptions{})
	s.Search(q, 1)
	if st := s.Stats(); st.FullProducts >= 3000 {
		t.Errorf("SSL computed %d/%d full products", st.FullProducts, 3000)
	}
}

func TestSearchPanicsOnDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items, _ := searchtest.RandomInstance(rng, 10, 4)
	s := newSS(items, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Search([]float64{1}, 1)
}
