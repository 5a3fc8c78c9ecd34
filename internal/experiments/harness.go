// Package experiments is the reproduction harness for the paper's
// evaluation (Section 7 and Appendix B): it builds each retrieval method
// over the calibrated synthetic datasets, times preprocessing and
// retrieval, collects pruning counters, and formats results as the
// paper's tables and figures. It is shared by cmd/fexbench and the
// repository's testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"time"

	"fexipro/internal/data"
	"fexipro/internal/engine"
	"fexipro/internal/method"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/vec"
)

// Config controls workload sizes. Zero values select per-profile bench
// defaults (Table 2 sizes, except Yahoo which is scaled to 100k items).
type Config struct {
	// Profiles to evaluate; nil = all four in paper order.
	Profiles []string
	// Items, Queries, Dim override the profile defaults when > 0.
	Items, Queries, Dim int
	// Shards > 1 partitions every method's index into that many shards
	// answered per query through the sharded execution engine (DESIGN.md
	// §11) with a pool of SearchWorkers goroutines (≤ 0 = GOMAXPROCS,
	// clamped to Shards). Results are bit-identical to the sequential
	// scan for every exact method.
	Shards, SearchWorkers int
}

func (c Config) profiles() []data.Profile {
	if len(c.Profiles) == 0 {
		return data.Profiles()
	}
	out := make([]data.Profile, 0, len(c.Profiles))
	for _, name := range c.Profiles {
		p, err := data.ProfileByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// Load generates the dataset for one profile under this config.
func (c Config) Load(p data.Profile) *data.Dataset {
	return data.Generate(p, c.Items, c.Queries, c.Dim)
}

// MethodNames are the methods of the paper's Table 4, in table order —
// derived from the internal/method registry, the single source of
// method names in this repository.
var MethodNames = method.TableNames()

// Built couples a constructed searcher with its preprocessing time.
type Built struct {
	Name       string
	Searcher   search.Searcher
	Preprocess time.Duration
}

// tuningSamples is how many sample queries the LEMP-style w tuning uses;
// LEMP's preprocessing works with "a small number of sample queries".
const tuningSamples = 5

// Build constructs the named method over the items by resolving the
// internal/method registry (names and aliases, case-insensitive). SS-L
// and LEMP use (the first few) sampleQueries for w tuning when
// provided.
func Build(name string, items *vec.Matrix, sampleQueries *vec.Matrix) (Built, error) {
	return BuildSharded(name, items, sampleQueries, 1, 1)
}

// BuildSharded constructs the named method with its index partitioned
// into `shards` scanned per query by a pool of `workers` goroutines
// through the sharded execution engine (DESIGN.md §11) — the one
// executor every method runs on, so Table 4 compares algorithms;
// shards ≤ 1 is the sequential scan. Preprocess includes the shard
// partitioning (and, for tree methods, the per-shard tree builds).
func BuildSharded(name string, items, sampleQueries *vec.Matrix, shards, workers int) (Built, error) {
	d, err := method.Get(name)
	if err != nil {
		return Built{}, fmt.Errorf("experiments: %w", err)
	}
	o := method.BuildOptions{SampleQueries: firstRows(sampleQueries, tuningSamples)}
	start := time.Now()
	kern, err := d.NewKernel(items, o, shards)
	if err != nil {
		return Built{}, err
	}
	return Built{Name: d.Name, Searcher: engine.New(kern, workers), Preprocess: time.Since(start)}, nil
}

// QueryCost records one query's work for the distribution figures.
type QueryCost struct {
	Duration     time.Duration
	FullProducts int
}

// RunResult aggregates one method over one workload.
type RunResult struct {
	Method       string
	Dataset      string
	K            int
	Preprocess   time.Duration
	Retrieve     time.Duration
	AvgFullIP    float64 // Tables 3 and 7
	Stats        search.Stats
	PerQuery     []QueryCost
	QueriesCount int

	// Per-stage wall times: the cumulative span durations of the query
	// transform, the (per-shard) scan, and — for sharded methods — the
	// canonical merge (DESIGN.md §13). Retrieve remains the outer
	// end-to-end time; the stages nest inside it.
	Transform time.Duration
	Scan      time.Duration
	Merge     time.Duration
}

// Run executes every query of the dataset at k against a built method,
// each under a span, so the result also carries per-stage
// (transform/scan/merge) wall times; the span attach is a few hundred
// nanoseconds per query, invisible next to a catalog scan.
func Run(b Built, ds *data.Dataset, k int, collectPerQuery bool) RunResult {
	r := RunResult{
		Method:       b.Name,
		Dataset:      ds.Profile.Name,
		K:            k,
		Preprocess:   b.Preprocess,
		QueriesCount: ds.Queries.Rows,
	}
	if collectPerQuery {
		r.PerQuery = make([]QueryCost, 0, ds.Queries.Rows)
	}
	var totalFull int
	start := time.Now()
	for i := 0; i < ds.Queries.Rows; i++ {
		qStart := time.Now()
		root := obs.NewRoot("search")
		_, _ = b.Searcher.SearchContext(obs.ContextWithSpan(context.Background(), root), ds.Queries.Row(i), k)
		root.End()
		r.Transform += root.ChildDuration("transform")
		r.Scan += root.ChildDuration("scan")
		r.Merge += root.ChildDuration("merge")
		st := b.Searcher.Stats()
		totalFull += st.FullProducts
		r.Stats.Add(st)
		if collectPerQuery {
			r.PerQuery = append(r.PerQuery, QueryCost{
				Duration:     time.Since(qStart),
				FullProducts: st.FullProducts,
			})
		}
	}
	r.Retrieve = time.Since(start)
	if ds.Queries.Rows > 0 {
		r.AvgFullIP = float64(totalFull) / float64(ds.Queries.Rows)
	}
	return r
}

// firstRows returns a view of at most n leading rows of m (nil-safe).
func firstRows(m *vec.Matrix, n int) *vec.Matrix {
	if m == nil || m.Rows <= n {
		return m
	}
	return &vec.Matrix{Rows: n, Cols: m.Cols, Data: m.Data[:n*m.Cols]}
}

// RunMethod builds and runs a method over a dataset in one call.
func RunMethod(name string, ds *data.Dataset, k int, collectPerQuery bool) (RunResult, error) {
	b, err := Build(name, ds.Items, ds.Queries)
	if err != nil {
		return RunResult{}, err
	}
	return Run(b, ds, k, collectPerQuery), nil
}

// RunMethodSharded is RunMethod through BuildSharded.
func RunMethodSharded(name string, ds *data.Dataset, k int, collectPerQuery bool, shards, workers int) (RunResult, error) {
	b, err := BuildSharded(name, ds.Items, ds.Queries, shards, workers)
	if err != nil {
		return RunResult{}, err
	}
	return Run(b, ds, k, collectPerQuery), nil
}
