package lemp_test

import (
	"math/rand"
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/lemp"
	"fexipro/internal/scan"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// searcher is the single-query search path: the engine over a Kernel of
// bucket ranges (the registry's LEMP is this with the LI strategy, which
// internal/method's registry-driven test covers; StrategyCoord and small
// buckets are reachable only from here).
func searcher(opts lemp.Options) searchtest.Builder {
	return func(items *vec.Matrix, shards int) searchtest.FaultSearcher {
		return engine.New(lemp.NewKernel(lemp.New(items, opts), shards), 2)
	}
}

func checkExact(t *testing.T, opts lemp.Options, label string) {
	t.Helper()
	searchtest.CheckSearcher(t, searcher(opts).Sequential, label)
	searchtest.CheckSearcherEdgeCases(t, searcher(opts).Sequential, label)
}

func TestLEMPExactSingleQuery(t *testing.T) { checkExact(t, lemp.Options{}, "lemp") }

func TestLEMPCancellationLI(t *testing.T) {
	searchtest.CheckCancellation(t, searcher(lemp.Options{}).Sequential, "LEMP-LI")
}

func TestLEMPCancellationCoord(t *testing.T) {
	searchtest.CheckCancellation(t, searcher(lemp.Options{Strategy: lemp.StrategyCoord}).Sequential, "LEMP-COORD")
}

// Small buckets so even the harness's small instances span many
// buckets and every shard count in the grid gets real work.
func TestShardedLEMPBitExact(t *testing.T) {
	for _, st := range []struct {
		name     string
		strategy lemp.Strategy
	}{{"LI", lemp.StrategyLI}, {"Coord", lemp.StrategyCoord}} {
		st := st
		t.Run(st.name, func(t *testing.T) {
			searchtest.CheckSharded(t, searcher(lemp.Options{BucketSize: 16, Strategy: st.strategy}), "lemp-"+st.name)
		})
	}
}

func TestShardedLEMPCancellation(t *testing.T) {
	searchtest.CheckShardedCancellation(t, searcher(lemp.Options{BucketSize: 16}), "lemp")
}

func TestLEMPExactSmallBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	items, _ := searchtest.RandomInstance(rng, 500, 12)
	for _, bs := range []int{1, 7, 64, 10000} {
		idx := searcher(lemp.Options{BucketSize: bs}).Sequential(items)
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, 12)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			searchtest.CheckTopK(t, items, q, 5, idx.Search(q, 5), "lemp/bucket")
		}
	}
}

func TestLEMPTopKJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	items, _ := searchtest.RandomInstance(rng, 800, 16)
	queries := vec.NewMatrix(25, 16)
	for i := range queries.Data {
		queries.Data[i] = rng.NormFloat64()
	}
	idx := lemp.New(items, lemp.Options{BucketSize: 128})
	all := idx.TopKJoin(queries, 7)
	if len(all) != 25 {
		t.Fatalf("join returned %d result lists", len(all))
	}
	for qi := 0; qi < queries.Rows; qi++ {
		searchtest.CheckTopK(t, items, queries.Row(qi), 7, all[qi], "lemp/join")
	}
}

func TestLEMPWithTunedW(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	items, _ := searchtest.RandomInstance(rng, 600, 20)
	samples := vec.NewMatrix(5, 20)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()
	}
	idx := searcher(lemp.Options{SampleQueries: samples}).Sequential(items)
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, 20)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		searchtest.CheckTopK(t, items, q, 10, idx.Search(q, 10), "lemp/tuned")
	}
}

func TestLEMPBucketTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	items, q := searchtest.RandomInstance(rng, 5000, 16)
	idx := searcher(lemp.Options{}).Sequential(items)
	idx.Search(q, 1)
	st := idx.Stats()
	if st.PrunedByLength == 0 {
		t.Error("LEMP never pruned by length on norm-skewed data")
	}
	if st.FullProducts >= 5000 {
		t.Errorf("LEMP computed all %d products", st.FullProducts)
	}
}

func TestLEMPFasterPathAgreesWithSSL(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	items, _ := searchtest.RandomInstance(rng, 400, 10)
	idx := searcher(lemp.Options{}).Sequential(items)
	ssl := engine.New(scan.NewSSLKernel(scan.NewSSL(items, scan.SSLOptions{}), 1), 1)
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, 10)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		a := idx.Search(q, 5)
		b := ssl.Search(q, 5)
		if len(a) != len(b) {
			t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if d := a[i].Score - b[i].Score; d > 1e-9 || d < -1e-9 {
				t.Fatalf("rank %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

func TestCoordStrategyExact(t *testing.T) {
	checkExact(t, lemp.Options{Strategy: lemp.StrategyCoord}, "lemp-coord")
}

func TestCoordStrategyJoinMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	items, _ := searchtest.RandomInstance(rng, 900, 14)
	queries := vec.NewMatrix(12, 14)
	for i := range queries.Data {
		queries.Data[i] = rng.NormFloat64()
	}
	li := lemp.New(items, lemp.Options{})
	coord := lemp.New(items, lemp.Options{Strategy: lemp.StrategyCoord})
	a := li.TopKJoin(queries, 5)
	b := coord.TopKJoin(queries, 5)
	for qi := range a {
		for i := range a[qi] {
			if d := a[qi][i].Score - b[qi][i].Score; d > 1e-9 || d < -1e-9 {
				t.Fatalf("query %d rank %d: %v vs %v", qi, i, a[qi][i], b[qi][i])
			}
		}
	}
}
