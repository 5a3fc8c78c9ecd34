// BenchmarkShardedSearch measures the sharded execution engine against
// the classic sequential retriever on the same index and workload. On a
// single-core box the engine cannot beat the sequential scan — the
// interesting numbers there are its fan-out/merge overhead and the
// shared-threshold pruning quality (fullIP/query should match the
// sequential run closely); with GOMAXPROCS > 1 the per-query latency is
// expected to drop roughly with the worker count.
//
// Run via `make bench-shard` or:
//
//	go test -bench=BenchmarkShardedSearch -benchtime=1x -run='^$' .
package fexipro_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/data"
	"fexipro/internal/experiments"
	"fexipro/internal/obs"
	"fexipro/internal/search"
)

func BenchmarkShardedSearch(b *testing.B) {
	const profile, method, k = "netflix", "F-SIR", 10
	ds := benchDataset(b, profile)
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name            string
		shards, workers int
	}{
		{"sequential", 1, 1},
		{"shards=2/workers=2", 2, 2},
		{"shards=8/workers=2", 8, 2},
		{fmt.Sprintf("shards=%d/workers=%d", 4*procs, procs), 4 * procs, procs},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			built, err := experiments.BuildSharded(method, ds.Items, ds.Queries, c.shards, c.workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var st search.Stats
			for i := 0; i < b.N; i++ {
				st = search.Stats{}
				ctx := obs.WithStats(context.Background(), &st)
				for qi := 0; qi < ds.Queries.Rows; qi++ {
					_, _ = built.Searcher.SearchContext(ctx, ds.Queries.Row(qi), k)
				}
			}
			b.ReportMetric(float64(st.FullProducts)/float64(ds.Queries.Rows), "fullIP/query")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*ds.Queries.Rows), "µs/query")
		})
	}
}

// BenchmarkDynamicSearchTombstones is the core.DynamicIndex search layer
// at the repository benchmark's serve-mixed shape (MovieLens, n = 10⁵,
// k = 10, one shard) with 0, 100, 1 000 and 10 000 random tombstones in
// the main index, all below the rebuild trigger. A tombstone is tested
// where a survivor is offered, so µs/query and scanned/query should stay
// flat across the four.
func BenchmarkDynamicSearchTombstones(b *testing.B) {
	const n, k = 100000, 10
	ds := data.Generate(data.MovieLens(), n, benchQueries, 0)
	opts, err := core.OptionsForVariant("F-SIR")
	if err != nil {
		b.Fatal(err)
	}
	di, err := core.NewDynamicIndex(ds.Items, opts, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	dead := 0
	for _, tombstones := range []int{0, 100, 1000, 10000} {
		for dead < tombstones {
			if di.Delete(rng.Intn(n)) == nil { // an already deleted ID is an error: draw again
				dead++
			}
		}
		b.Run(fmt.Sprintf("tombstones=%d", tombstones), func(b *testing.B) {
			var st search.Stats
			for i := 0; i < b.N; i++ {
				st = search.Stats{}
				ctx := obs.WithStats(context.Background(), &st)
				for qi := 0; qi < ds.Queries.Rows; qi++ {
					_, _ = di.SearchContext(ctx, ds.Queries.Row(qi), k)
				}
			}
			b.ReportMetric(float64(st.Scanned)/float64(ds.Queries.Rows), "scanned/query")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*ds.Queries.Rows), "µs/query")
		})
	}
	if r := di.Rebuilds()[0]; r != 1 {
		b.Fatalf("main index rebuilt %d times: the tombstones were compacted away", r)
	}
}

// BenchmarkDynamicAdd is one core.DynamicIndex insert with no rebuild in
// it (the trigger is set out of reach): the catalog append plus the delta
// buffer append, which must not depend on the 2·10⁴ rows already there.
func BenchmarkDynamicAdd(b *testing.B) {
	ds := benchDataset(b, "movielens")
	const perIndex = 50000 // adds before starting over, to bound memory
	item := ds.Items.Row(0)
	var di *core.DynamicIndex
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%perIndex == 0 {
			b.StopTimer()
			var err error
			if di, err = core.NewDynamicIndex(ds.Items, core.Options{}, 1e9); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := di.Add(item); err != nil {
			b.Fatal(err)
		}
	}
}
