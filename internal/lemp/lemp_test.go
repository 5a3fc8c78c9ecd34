package lemp_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/lemp"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// searcher is the single-query search path: the engine over a Kernel of
// bucket ranges (the registry's LEMP is this with default options, which
// internal/method's registry-driven test covers; small buckets are
// reachable only from here).
func searcher(opts lemp.Options) searchtest.Builder {
	return func(items *vec.Matrix, shards int) search.Searcher {
		return engine.New(lemp.NewKernel(lemp.New(items, opts), shards), 2)
	}
}

// ssl is untuned SS-L, the configuration that runs the focus-coordinate
// test, in buckets of bucketSize rows.
func ssl(bucketSize int) searchtest.Builder {
	return func(items *vec.Matrix, shards int) search.Searcher {
		return engine.New(lemp.NewKernel(lemp.NewSSLBuckets(items, nil, bucketSize), shards), 2)
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
	searchtest.CheckCancellation(t, ssl(lemp.DefaultBucketSize).Sequential, "SS-L")
}

// Small buckets so even the harness's small instances span many
// buckets and every shard count in the grid gets real work.
func TestShardedLEMPBitExact(t *testing.T) {
	t.Run("LI", func(t *testing.T) { searchtest.CheckSharded(t, searcher(lemp.Options{BucketSize: 16}), "lemp-LI") })
	t.Run("Coord", func(t *testing.T) { searchtest.CheckSharded(t, ssl(16), "ssl") })
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

// TestLEMPTopKJoinMatchesNaive: every list of a join is exact, and the
// join's sink — each worker adds one sink up over the queries of its
// chunk — holds the sum of its queries' own sinks, at one worker and at
// three.
func TestLEMPTopKJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	items, _ := searchtest.RandomInstance(rng, 800, 16)
	queries := vec.NewMatrix(25, 16)
	for i := range queries.Data {
		queries.Data[i] = rng.NormFloat64()
	}
	idx := lemp.New(items, lemp.Options{BucketSize: 128})
	join := func(queries *vec.Matrix, workers int) ([][]topk.Result, search.Stats) {
		var st search.Stats
		all, err := idx.TopKJoinContext(obs.WithStats(context.Background(), &st), queries, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		return all, st
	}
	var want search.Stats
	for qi := 0; qi < queries.Rows; qi++ {
		_, st := join(queries.Slice(qi, qi+1), 1)
		want.Add(st)
	}
	if want.PrunedByLength == 0 {
		t.Fatalf("no query was cut by the length bound: %+v", want)
	}
	for _, workers := range []int{1, 3} {
		all, st := join(queries, workers)
		if len(all) != 25 {
			t.Fatalf("workers=%d: join returned %d result lists", workers, len(all))
		}
		for qi := 0; qi < queries.Rows; qi++ {
			searchtest.CheckTopK(t, items, queries.Row(qi), 7, all[qi], "lemp/join")
		}
		if st != want {
			t.Fatalf("workers=%d: the join's sink holds %+v, its queries' own sinks add up to %+v", workers, st, want)
		}
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
	_, st := searchtest.Counted(idx, q, 1)
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
	ref := ssl(lemp.DefaultBucketSize).Sequential(items)
	var fullLI, fullSSL int
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, 10)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		a, stLI := searchtest.Counted(idx, q, 5)
		b, stSSL := searchtest.Counted(ref, q, 5)
		fullLI += stLI.FullProducts
		fullSSL += stSSL.FullProducts
		if len(a) != len(b) {
			t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if d := a[i].Score - b[i].Score; d > 1e-9 || d < -1e-9 {
				t.Fatalf("rank %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
	// Both scan at w = d/5; SS-L's focus-coordinate test is what cuts
	// the candidates it finishes.
	if fullSSL >= fullLI {
		t.Errorf("SS-L finished %d products, LEMP-LI %d: the focus test pruned nothing", fullSSL, fullLI)
	}
}

func TestCoordStrategyExact(t *testing.T) {
	searchtest.CheckSearcher(t, ssl(16).Sequential, "ssl/small-buckets")
	searchtest.CheckSearcherEdgeCases(t, ssl(16).Sequential, "ssl/small-buckets")
}

func TestCoordStrategyJoinMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	items, _ := searchtest.RandomInstance(rng, 900, 14)
	queries := vec.NewMatrix(12, 14)
	for i := range queries.Data {
		queries.Data[i] = rng.NormFloat64()
	}
	li := lemp.New(items, lemp.Options{})
	coord := lemp.NewSSL(items, nil)
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

// SS-L tunes one checking dimension for every bucket, in [1, d−1].
func TestSSLTunedW(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	items, _ := searchtest.RandomInstance(rng, 1000, 24)
	samples := vec.NewMatrix(10, 24)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()
	}
	ws := lemp.NewSSL(items, samples).Ws()
	for _, w := range ws {
		if w != ws[0] || w < 1 || w >= 24 {
			t.Fatalf("bucket checking dimensions %v: want one value in [1, 23]", ws)
		}
	}
}

// Tuning samples of another width than the items panic with the same
// message a query of that width does.
func TestSampleWidthPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	items, _ := searchtest.RandomInstance(rng, 50, 8)
	for name, build := range map[string]func(samples *vec.Matrix){
		"LEMP": func(s *vec.Matrix) { lemp.New(items, lemp.Options{SampleQueries: s}) },
		"SS-L": func(s *vec.Matrix) { lemp.NewSSL(items, s) },
	} {
		for _, cols := range []int{4, 12} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "lemp: query dim") {
						t.Errorf("%s with %d-wide samples: recovered %q, want a lemp: query dim panic", name, cols, msg)
					}
				}()
				build(vec.NewMatrix(3, cols))
			}()
		}
	}
}
