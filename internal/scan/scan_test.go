package scan_test

import (
	"math/rand"
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/lemp"
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
	_, st := searchtest.Counted(scan.NewNaive(items), q, 5)
	if st.Scanned != 100 || st.FullProducts != 100 {
		t.Fatalf("stats = %+v, want 100 scanned/full", st)
	}
}

// ss is the registry's SS at checking dimension w. The sorted scan of
// Algorithms 1 and 2 has no loop of its own in this package any more —
// the registry builds it as FEXIPRO variant F compared strictly — and
// these tests hold that build to what they held scan.SS to.
func ss(w int) searchtest.Builder {
	return func(items *vec.Matrix, shards int) search.Searcher {
		s, err := method.Sharded("SS", items, method.BuildOptions{W: w}, shards, 2)
		if err != nil {
			panic(err)
		}
		return s
	}
}

func newSS(items *vec.Matrix, w int) search.Searcher { return ss(w).Sequential(items) }

// The scan this package implements, as the engine runs it.
func naive(items *vec.Matrix, shards int) search.Searcher {
	return engine.New(scan.NewNaiveKernel(scan.NewNaive(items), shards), 2)
}

// ssl is SS-L tuned on samples (nil: untuned): LEMP's bucket scan with
// the focus-coordinate test. Its shards are bucket ranges, so the small
// catalogs here get at most two; lemp's tests shard it in small buckets.
func ssl(samples *vec.Matrix) searchtest.Builder {
	return func(items *vec.Matrix, shards int) search.Searcher {
		return engine.New(lemp.NewKernel(lemp.NewSSL(items, samples), shards), 2)
	}
}

func TestShardedNaiveBitExact(t *testing.T) { searchtest.CheckSharded(t, naive, "naive") }

func TestShardedSSBitExact(t *testing.T) { searchtest.CheckSharded(t, ss(0), "ss") }

func TestShardedSSLBitExact(t *testing.T) { searchtest.CheckSharded(t, ssl(nil), "ssl") }

func TestShardedScanCancellation(t *testing.T) {
	for name, build := range map[string]searchtest.Builder{
		"naive": naive, "ss": ss(0), "ssl": ssl(nil),
	} {
		build := build
		t.Run(name, func(t *testing.T) { searchtest.CheckShardedCancellation(t, build, name) })
	}
}

func TestSSExact(t *testing.T) {
	searchtest.CheckSearcher(t, ss(0).Sequential, "ss")
	searchtest.CheckSearcherEdgeCases(t, ss(0).Sequential, "ss")
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
	_, st := searchtest.Counted(newSS(items, 0), q, 1)
	if st.PrunedByLength == 0 {
		t.Error("SS never used Cauchy–Schwarz termination on skewed data")
	}
	if st.FullProducts >= 2000 {
		t.Errorf("SS computed %d full products of %d items — no pruning at all", st.FullProducts, 2000)
	}
}

func TestSSLExact(t *testing.T) {
	searchtest.CheckSearcher(t, ssl(nil).Sequential, "ssl")
	searchtest.CheckSearcherEdgeCases(t, ssl(nil).Sequential, "ssl")
}

func TestSSLExactWithTuning(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items, _ := searchtest.RandomInstance(rng, 500, 24)
	samples := vec.NewMatrix(10, 24)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()
	}
	s := ssl(samples).Sequential(items)
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
	if _, st := searchtest.Counted(ssl(nil).Sequential(items), q, 1); st.FullProducts >= 3000 {
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
