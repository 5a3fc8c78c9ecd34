// Benchmarks reproducing every table and figure of the paper's
// evaluation. Each BenchmarkTableN / BenchmarkFigN regenerates the data
// behind that exhibit; cmd/fexbench prints the same content as formatted
// tables at full scale.
//
// Default benchmark sizes are scaled down (≤20k items, 30 queries per
// dataset) so `go test -bench=. -benchmem` finishes in minutes on one
// core. Set FEX_BENCH_FULL=1 for the full Table 2 sizes (Yahoo capped at
// 100k items as documented in DESIGN.md).
package fexipro_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"fexipro/internal/batch"
	"fexipro/internal/core"
	"fexipro/internal/data"
	"fexipro/internal/engine"
	"fexipro/internal/experiments"
	"fexipro/internal/lemp"
	"fexipro/internal/obs"
	"fexipro/internal/pcatree"
	"fexipro/internal/scan"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/svd"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

const benchQueries = 30

func benchItems(p data.Profile) int {
	if os.Getenv("FEX_BENCH_FULL") != "" {
		return p.BenchItems
	}
	if p.BenchItems > 20000 {
		return 20000
	}
	return p.BenchItems
}

var (
	dsCache   = map[string]*data.Dataset{}
	dsCacheMu sync.Mutex
)

func benchDataset(b *testing.B, profile string) *data.Dataset {
	b.Helper()
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if ds, ok := dsCache[profile]; ok {
		return ds
	}
	p, err := data.ProfileByName(profile)
	if err != nil {
		b.Fatal(err)
	}
	ds := data.Generate(p, benchItems(p), benchQueries, 0)
	dsCache[profile] = ds
	return ds
}

var (
	builtCache   = map[string]experiments.Built{}
	builtCacheMu sync.Mutex
)

func benchSearcher(b *testing.B, profile, method string) experiments.Built {
	b.Helper()
	key := profile + "/" + method
	builtCacheMu.Lock()
	defer builtCacheMu.Unlock()
	if s, ok := builtCache[key]; ok {
		return s
	}
	ds := benchDataset(b, profile)
	built, err := experiments.Build(method, ds.Items, ds.Queries)
	if err != nil {
		b.Fatal(err)
	}
	builtCache[key] = built
	return built
}

// runWorkload executes every benchmark query once and reports the metric
// of Tables 3/7 (average entire-qᵀp computations per query).
func runWorkload(b *testing.B, profile, method string, k int) {
	b.Helper()
	ds := benchDataset(b, profile)
	built := benchSearcher(b, profile, method)
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
}

var benchProfiles = []string{"movielens", "yelp", "netflix", "yahoo"}

// BenchmarkTable3 — average number of entire qᵀp computations, k=1.
func BenchmarkTable3(b *testing.B) {
	for _, p := range benchProfiles {
		for _, m := range []string{"BallTree", "SS-L", "F-S", "F-SI", "F-SIR"} {
			b.Run(p+"/"+m, func(b *testing.B) { runWorkload(b, p, m, 1) })
		}
	}
}

// BenchmarkTable4 — retrieval time, all nine methods, k=1.
func BenchmarkTable4(b *testing.B) {
	for _, p := range benchProfiles {
		for _, m := range experiments.MethodNames {
			b.Run(p+"/"+m, func(b *testing.B) { runWorkload(b, p, m, 1) })
		}
	}
}

// BenchmarkTable5 — MiniBatch blocked GEMM at the paper's batch sizes.
func BenchmarkTable5(b *testing.B) {
	for _, p := range benchProfiles {
		ds := benchDataset(b, p)
		for _, bs := range []int{1, 100, 10000} {
			for _, workers := range []int{1, 0} {
				name := fmt.Sprintf("%s/bs=%d/workers=%d", p, bs, workers)
				b.Run(name, func(b *testing.B) {
					mb := batch.New(ds.Items, batch.Options{BatchSize: bs, Workers: workers})
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						mb.TopKAll(ds.Queries, 1)
					}
				})
			}
		}
	}
}

// BenchmarkTable6 — LEMP batch top-k join across k.
func BenchmarkTable6(b *testing.B) {
	for _, p := range benchProfiles {
		ds := benchDataset(b, p)
		idx := lemp.New(ds.Items, lemp.Options{})
		for _, k := range []int{1, 2, 5, 10, 50} {
			b.Run(fmt.Sprintf("%s/k=%d", p, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					idx.TopKJoin(ds.Queries, k)
				}
			})
		}
	}
}

// BenchmarkTable7 — entire-computation counts for larger k.
func BenchmarkTable7(b *testing.B) {
	for _, p := range benchProfiles {
		for _, k := range []int{2, 5, 10, 50} {
			for _, m := range []string{"SS-L", "F-SI", "F-SIR"} {
				b.Run(fmt.Sprintf("%s/k=%d/%s", p, k, m), func(b *testing.B) { runWorkload(b, p, m, k) })
			}
		}
	}
}

// BenchmarkTable8 — retrieval times for larger k, all methods.
func BenchmarkTable8(b *testing.B) {
	for _, p := range benchProfiles {
		for _, k := range []int{2, 5, 10, 50} {
			for _, m := range []string{"Naive", "SS-L", "F-S", "F-SIR"} {
				b.Run(fmt.Sprintf("%s/k=%d/%s", p, k, m), func(b *testing.B) { runWorkload(b, p, m, k) })
			}
		}
	}
}

// BenchmarkFig6 — the speedup data of Figure 6 derives from Table 4;
// this bench times the two endpoints (Naive vs F-SIR) head to head.
func BenchmarkFig6(b *testing.B) {
	for _, p := range benchProfiles {
		for _, m := range []string{"Naive", "F-SIR"} {
			b.Run(p+"/"+m, func(b *testing.B) { runWorkload(b, p, m, 1) })
		}
	}
}

// BenchmarkFig7 — SS-L vs F-SIR across k (retrieval-time-vs-k curves).
func BenchmarkFig7(b *testing.B) {
	for _, p := range benchProfiles {
		for _, k := range []int{1, 5, 50} {
			for _, m := range []string{"SS-L", "F-SIR"} {
				b.Run(fmt.Sprintf("%s/k=%d/%s", p, k, m), func(b *testing.B) { runWorkload(b, p, m, k) })
			}
		}
	}
}

// BenchmarkFig8 — computing the average k-th inner product curve.
func BenchmarkFig8(b *testing.B) {
	for _, p := range benchProfiles {
		b.Run(p, func(b *testing.B) {
			ds := benchDataset(b, p)
			built := benchSearcher(b, p, "F-SIR")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < ds.Queries.Rows; qi++ {
					built.Searcher.Search(ds.Queries.Row(qi), 50)
				}
			}
		})
	}
}

// BenchmarkFig9And12 — per-query cost/count distributions for F-SIR.
func BenchmarkFig9And12(b *testing.B) {
	for _, p := range benchProfiles {
		b.Run(p, func(b *testing.B) {
			ds := benchDataset(b, p)
			built := benchSearcher(b, p, "F-SIR")
			b.ResetTimer()
			var maxFull int
			for i := 0; i < b.N; i++ {
				maxFull = 0
				for qi := 0; qi < ds.Queries.Rows; qi++ {
					if _, st := searchtest.Counted(built.Searcher, ds.Queries.Row(qi), 1); st.FullProducts > maxFull {
						maxFull = st.FullProducts
					}
				}
			}
			b.ReportMetric(float64(maxFull), "maxFullIP/query")
		})
	}
}

// BenchmarkFig10 — the ρ sweep: retrieval cost at each checking
// dimension derived from ρ.
func BenchmarkFig10(b *testing.B) {
	for _, p := range benchProfiles {
		ds := benchDataset(b, p)
		for _, rho := range []float64{0.5, 0.7, 0.9} {
			b.Run(fmt.Sprintf("%s/rho=%.1f", p, rho), func(b *testing.B) {
				idx, err := core.NewIndex(ds.Items, core.Options{SVD: true, Int: true, Reduction: true, Rho: rho})
				if err != nil {
					b.Fatal(err)
				}
				r := core.NewRetriever(idx)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for qi := 0; qi < ds.Queries.Rows; qi++ {
						r.Search(ds.Queries.Row(qi), 1)
					}
				}
				b.ReportMetric(float64(idx.W()), "w")
			})
		}
	}
}

// BenchmarkFig11 — the integer-scaling e sweep.
func BenchmarkFig11(b *testing.B) {
	for _, p := range benchProfiles {
		ds := benchDataset(b, p)
		for _, e := range []float64{10, 100, 127} {
			b.Run(fmt.Sprintf("%s/e=%g", p, e), func(b *testing.B) {
				idx, err := core.NewIndex(ds.Items, core.Options{SVD: true, Int: true, Reduction: true, E: e})
				if err != nil {
					b.Fatal(err)
				}
				r := core.NewRetriever(idx)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for qi := 0; qi < ds.Queries.Rows; qi++ {
						r.Search(ds.Queries.Row(qi), 1)
					}
				}
			})
		}
	}
}

// BenchmarkFig13 — PCATree approximate retrieval (plus RMSE@1 metric).
func BenchmarkFig13(b *testing.B) {
	for _, p := range benchProfiles {
		b.Run(p, func(b *testing.B) {
			ds := benchDataset(b, p)
			tree := engine.New(pcatree.NewKernel(pcatree.New(ds.Items, pcatree.Options{LeafSize: 64}), 1), 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < ds.Queries.Rows; qi++ {
					tree.Search(ds.Queries.Row(qi), 1)
				}
			}
			b.StopTimer()
			exact := scan.NewNaive(ds.Items)
			b.ReportMetric(pcatree.RMSEAtK(tree, exact, ds.Queries, 1), "RMSE@1")
		})
	}
}

// BenchmarkFig14To19 — the SVD/value-distribution analyses: generation,
// thin SVD, and the per-dimension statistics behind Figures 14-19.
func BenchmarkFig14To19(b *testing.B) {
	for _, p := range benchProfiles {
		b.Run(p+"/thinSVD", func(b *testing.B) {
			ds := benchDataset(b, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svd.Decompose(ds.Items, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig20 — dimensionality sweep, SS-L vs F-SIR.
func BenchmarkFig20(b *testing.B) {
	p, err := data.ProfileByName("movielens")
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{10, 50, 100} {
		ds := data.Generate(p, 8000, benchQueries, d)
		for _, m := range []string{"SS-L", "F-SIR"} {
			b.Run(fmt.Sprintf("d=%d/%s", d, m), func(b *testing.B) {
				built, err := experiments.Build(m, ds.Items, ds.Queries)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for qi := 0; qi < ds.Queries.Rows; qi++ {
						built.Searcher.Search(ds.Queries.Row(qi), 1)
					}
				}
			})
		}
	}
}

// BenchmarkSearchContextOverhead measures the cost of the cooperative
// cancellation machinery on the UNCANCELLED hot path, in the worst case
// for relative overhead: d = 1, where per-item work is a single multiply
// and the poll branches are maximally visible.
//
//	nopoll      — hand-rolled scan loop with no cancellation support,
//	              the pre-context baseline
//	background  — Naive.SearchContext(context.Background()): ctx.Done()
//	              is nil, so the poll branch is two nil-checks per item
//	armed       — a cancellable context: a select on ctx.Done() every
//	              search.CheckStride items
//
// The acceptance bar (DESIGN.md, Robustness) is background within 1% of
// nopoll; armed adds one channel select per 1024 items on top.
func BenchmarkSearchContextOverhead(b *testing.B) {
	const n, d = 100_000, 1
	rng := rand.New(rand.NewSource(99))
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	q := []float64{rng.NormFloat64()}
	const k = 10

	b.Run("nopoll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := topk.New(k)
			for id := 0; id < items.Rows; id++ {
				c.Push(id, vec.Dot(q, items.Row(id)))
			}
			c.Results()
		}
	})
	b.Run("background", func(b *testing.B) {
		s := scan.NewNaive(items)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SearchContext(ctx, q, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("armed", func(b *testing.B) {
		s := scan.NewNaive(items)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SearchContext(ctx, q, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpanOverhead measures per-query span tracing (DESIGN.md §13)
// at the same adversarial point as BenchmarkSearchContextOverhead:
// d = 1, n = 100k, where any per-query fixed cost is most visible
// relative to the scan.
//
//	disabled — SearchContext with no span in ctx: the production
//	           default. The only added work versus the cancellation
//	           baseline is one ctx.Value lookup per query returning nil,
//	           after which every span call is a nil-receiver no-op. The
//	           acceptance bar is within 1% of the background variant of
//	           BenchmarkSearchContextOverhead.
//	enabled  — a root span in ctx, as fexserve -trace runs: Prepare and
//	           the scan get timed children. The absolute cost is a few
//	           span allocations per QUERY (never per item — enforced by
//	           the hotalloc analyzer), invisible at realistic d.
func BenchmarkSpanOverhead(b *testing.B) {
	const n, d = 100_000, 1
	rng := rand.New(rand.NewSource(99))
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	q := []float64{rng.NormFloat64()}
	const k = 10

	b.Run("disabled", func(b *testing.B) {
		s := scan.NewNaive(items)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SearchContext(ctx, q, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		s := scan.NewNaive(items)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root := obs.NewRoot("search")
			ctx := obs.WithQuery(context.Background(), obs.Query{Span: root})
			if _, err := s.SearchContext(ctx, q, k); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
	})
	b.Run("enabled-sharded", func(b *testing.B) {
		kern := scan.NewNaiveKernel(scan.NewNaive(items), 4)
		eng := engine.New(kern, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root := obs.NewRoot("search")
			ctx := obs.WithQuery(context.Background(), obs.Query{Span: root})
			if _, err := eng.SearchContext(ctx, q, k); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
	})
}

// BenchmarkPreprocess times Algorithm 3 itself (the bracketed column of
// Tables 4/8).
func BenchmarkPreprocess(b *testing.B) {
	for _, p := range benchProfiles {
		for _, m := range []string{"SS-L", "F-S", "F-SIR"} {
			b.Run(p+"/"+m, func(b *testing.B) {
				ds := benchDataset(b, p)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := experiments.Build(m, ds.Items, ds.Queries); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
