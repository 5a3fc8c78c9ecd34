package fexipro

import (
	"context"

	"fexipro/internal/batch"
	"fexipro/internal/core"
	"fexipro/internal/engine"
	"fexipro/internal/lemp"
	"fexipro/internal/method"
	"fexipro/internal/search"
	"fexipro/internal/vec"
)

// Options selects FEXIPRO's techniques and parameters. The zero value is
// the paper's recommended full configuration F-SIR with ρ=0.7, e=100.
type Options struct {
	// Variant names the technique combination: "F-SIR" (default), "F-S",
	// "F-I", "F-SI", "F-SR", or "F" for the bare sorted scan.
	Variant string
	// Rho sets the singular-value mass ratio that picks the checking
	// dimension w (default 0.7).
	Rho float64
	// E is the integer scaling parameter: 1 … 127, default 100 (≤ 0
	// selects it). A larger E is refused: every floor is an int8.
	E float64
	// W overrides the checking dimension (0 = derive from Rho).
	W int
	// Shards splits the index into that many contiguous partitions of
	// the norm-sorted items, answered in parallel per query by the
	// sharded execution engine and merged into the exact canonical
	// top-k; results are bit-identical to the single-shard scan for
	// every shard count. Values ≤ 1 mean one shard: the classic
	// sequential scan, run by the same engine on the calling goroutine.
	Shards int
	// Workers bounds the per-query goroutine pool (≤ 0 means GOMAXPROCS;
	// always clamped to Shards, so one shard starts no goroutine).
	Workers int
}

// internal translates the technique set and parameters into internal options.
func (o Options) internal() (core.Options, error) {
	variant := o.Variant
	if variant == "" {
		variant = "F-SIR"
	}
	copts, err := core.OptionsForVariant(variant)
	copts.Rho, copts.E, copts.W = o.Rho, o.E, o.W
	return copts, err
}

// FEXIPRO is the framework's public handle: a preprocessed index and
// the execution engine that answers top-k queries over it — the index's
// norm-sorted rows in Options.Shards contiguous ranges, each query
// scanned by a bounded worker pool and the per-shard heaps merged into
// the exact canonical top-k (DESIGN.md §11). The default, one shard, is
// the paper's sequential scan (Algorithm 4): the same engine, which then
// starts no goroutine and merges one list. For concurrent querying take
// one Retriever() per goroutine: each executor owns its per-query state
// and all of them share the index.
type FEXIPRO struct {
	idx  *core.Index
	kern *core.Sharded  // idx partitioned; read-only, shared by every executor
	eng  *engine.Engine // answers Search and SearchAbove
}

// New preprocesses items (rows are item vectors; copied) into a FEXIPRO
// index using the requested variant.
func New(items *Matrix, opts Options) (*FEXIPRO, error) {
	copts, err := opts.internal()
	if err != nil {
		return nil, err
	}
	idx, err := core.NewIndex(items.m, copts)
	if err != nil {
		return nil, err
	}
	return newFEXIPRO(idx, opts.Shards, opts.Workers), nil
}

func newFEXIPRO(idx *core.Index, shards, workers int) *FEXIPRO {
	kern := core.NewSharded(idx, shards) // clamps shards to [1, item count]
	return &FEXIPRO{idx: idx, kern: kern, eng: engine.New(kern, workers)}
}

// Search implements Searcher.
func (f *FEXIPRO) Search(q []float64, k int) []Result {
	return convertResults(f.eng.Search(q, k))
}

// SearchContext implements Searcher: on cancellation it returns the
// best-so-far partial top-k and an ErrDeadline-wrapping error.
func (f *FEXIPRO) SearchContext(ctx context.Context, q []float64, k int) ([]Result, error) {
	res, err := f.eng.SearchContext(ctx, q, k)
	return convertResults(res), err
}

// LastStats implements Searcher.
func (f *FEXIPRO) LastStats() Stats { return convertStats(f.eng.Stats()) }

// Retriever returns an additional query executor sharing this index —
// another engine over the same partitioned index, with this instance's
// shard and worker configuration; each executor may be used from one
// goroutine at a time.
func (f *FEXIPRO) Retriever() Searcher {
	return wrap{s: engine.New(f.kern, f.eng.Workers())}
}

// Shards reports the number of index shards answering each query (1 for
// the classic sequential scan).
func (f *FEXIPRO) Shards() int { return f.kern.Shards() }

// SearchWorkers reports the effective per-query worker-pool size (1 for
// the classic sequential scan).
func (f *FEXIPRO) SearchWorkers() int { return f.eng.Workers() }

// W reports the checking dimension chosen during preprocessing.
func (f *FEXIPRO) W() int { return f.idx.W() }

// TopKAll answers the top-k lists for a whole query workload against the
// shared index, processing queries in decreasing norm order and sharding
// them across workers (≤ 0 for single-threaded). Results are in input
// order.
func (f *FEXIPRO) TopKAll(queries *Matrix, k, workers int) ([][]Result, error) {
	return f.TopKAllContext(context.Background(), queries, k, workers)
}

// TopKAllContext behaves like TopKAll but honours ctx: on cancellation
// it stops promptly and returns the per-query lists completed so far
// (unprocessed slots stay nil; the query cut short keeps its
// best-so-far partial) together with an ErrDeadline-wrapping error. A
// nil error flags every list as exact.
func (f *FEXIPRO) TopKAllContext(ctx context.Context, queries *Matrix, k, workers int) ([][]Result, error) {
	raw, err := core.BatchTopKContext(ctx, f.idx, queries.m, k, workers)
	return convertLists(raw), err
}

var _ Searcher = (*FEXIPRO)(nil)

// Methods lists every retrieval method registered in this build, in
// registry order (the paper's table order with off-table methods
// interleaved). Any of these names — or their aliases, case-insensitive
// — works with NewMethod.
func Methods() []string { return method.Names() }

// MethodOptions tunes NewMethod. The zero value selects each method's
// documented defaults; fields a method does not use are ignored.
type MethodOptions struct {
	// SampleQueries drives LEMP-style checking-dimension tuning for
	// SS-L and LEMP (optional, may be nil).
	SampleQueries *Matrix
	// W is SS's checking dimension, or the FEXIPRO family's override for
	// the ρ-derived one (0 = derive).
	W int
	// Rho, E are the FEXIPRO family's preprocessing parameters (zero
	// values = paper defaults).
	Rho, E float64
	// LeafSize bounds tree leaves for BallTree/FastMKS/PCATree (0 = 20).
	LeafSize int
	// BucketSize is LEMP's norm-bucket size (0 = default).
	BucketSize int
	// SpillFraction is PCATree's spill overlap (0 = none).
	SpillFraction float64
	// Shards partitions the index; each query is answered through the
	// sharded execution engine with Workers goroutines (DESIGN.md §11).
	// Values ≤ 1 mean one shard, the sequential scan.
	Shards, Workers int
}

func (o MethodOptions) internal() method.BuildOptions {
	bo := method.BuildOptions{
		W: o.W, Rho: o.Rho, E: o.E,
		LeafSize: o.LeafSize, BucketSize: o.BucketSize, SpillFraction: o.SpillFraction,
	}
	if o.SampleQueries != nil {
		bo.SampleQueries = o.SampleQueries.m
	}
	return bo
}

// NewMethod builds any registered retrieval method by name (see
// Methods), resolving through the same registry as every tool in this
// repository.
func NewMethod(name string, items *Matrix, o MethodOptions) (Searcher, error) {
	s, err := method.Sharded(name, items.m, o.internal(), o.Shards, o.Workers)
	if err != nil {
		return nil, err
	}
	return wrap{s: s}, nil
}

// builtin builds the sequential form of a registry method whose
// descriptor cannot fail for a valid matrix (the baselines below); the
// panic is unreachable by construction.
func builtin(name string, items *vec.Matrix, o method.BuildOptions) search.Searcher {
	s, err := method.Sharded(name, items, o, 1, 1)
	if err != nil {
		panic("fexipro: " + err.Error())
	}
	return s
}

// NewNaive returns the exhaustive-scan baseline (items referenced, not
// copied; do not mutate afterwards).
func NewNaive(items *Matrix) Searcher {
	return wrap{s: builtin("Naive", items.m, method.BuildOptions{})}
}

// NewSS returns the Cauchy–Schwarz sorted scan with incremental pruning
// at checking dimension w (0 = default d/5): FEXIPRO's scan with no
// transformation switched on, so it copies items and, where New would
// return an error (no rows, a non-finite coordinate), panics — use
// NewMethod("SS", …) to get the error instead.
func NewSS(items *Matrix, w int) Searcher {
	return wrap{s: builtin("SS", items.m, method.BuildOptions{W: w})}
}

// NewSSL returns SS-L, the LEMP-style normalized-vector scan baseline.
// sampleQueries (optional, may be nil) drives LEMP-style w tuning.
func NewSSL(items *Matrix, sampleQueries *Matrix) Searcher {
	o := method.BuildOptions{}
	if sampleQueries != nil {
		o.SampleQueries = sampleQueries.m
	}
	return wrap{s: builtin("SS-L", items.m, o)}
}

// NewBallTree returns the BallTree exact MIPS baseline of Ram & Gray
// (leafSize 0 = the paper's 20).
func NewBallTree(items *Matrix, leafSize int) Searcher {
	return wrap{s: builtin("BallTree", items.m, method.BuildOptions{LeafSize: leafSize})}
}

// NewFastMKS returns the cover-tree max-kernel baseline (leafSize 0 =
// default 20).
func NewFastMKS(items *Matrix, leafSize int) Searcher {
	return wrap{s: builtin("FastMKS", items.m, method.BuildOptions{LeafSize: leafSize})}
}

// NewPCATree returns the APPROXIMATE PCA-tree baseline of Bachrach et
// al.; spillFraction > 0 trades speed for quality.
func NewPCATree(items *Matrix, leafSize int, spillFraction float64) Searcher {
	return wrap{s: builtin("PCATree", items.m, method.BuildOptions{LeafSize: leafSize, SpillFraction: spillFraction})}
}

// LEMP is the batch top-k join engine (Teflioudi et al.).
type LEMP struct {
	idx *lemp.Index    // the batch joins and the above-t scans they are made of
	eng *engine.Engine // single-query top-k over the same index
}

// NewLEMP indexes items for batch retrieval. sampleQueries (optional)
// tunes each bucket's checking dimension.
func NewLEMP(items *Matrix, bucketSize int, sampleQueries *Matrix) *LEMP {
	o := lemp.Options{BucketSize: bucketSize}
	if sampleQueries != nil {
		o.SampleQueries = sampleQueries.m
	}
	// The registry's LEMP is this kernel at one shard; the public type
	// also keeps the concrete index for its batch TopKJoin API.
	idx := lemp.New(items.m, o)
	return &LEMP{idx: idx, eng: engine.New(lemp.NewKernel(idx, 1), 1)}
}

// Search implements Searcher for a single query.
func (l *LEMP) Search(q []float64, k int) []Result {
	return convertResults(l.eng.Search(q, k))
}

// SearchContext implements Searcher: on cancellation it returns the
// best-so-far partial top-k and an ErrDeadline-wrapping error.
func (l *LEMP) SearchContext(ctx context.Context, q []float64, k int) ([]Result, error) {
	res, err := l.eng.SearchContext(ctx, q, k)
	return convertResults(res), err
}

// LastStats implements Searcher: the counters of the most recent Search
// or SearchContext (the joins and above-t scans do not report here).
func (l *LEMP) LastStats() Stats { return convertStats(l.eng.Stats()) }

// TopKJoin returns the top-k list for every query row.
func (l *LEMP) TopKJoin(queries *Matrix, k int) [][]Result {
	out, _ := l.TopKJoinContext(context.Background(), queries, k, 1)
	return out
}

// TopKJoinContext behaves like TopKJoin but honours ctx and shards the
// query workload across workers (≤ 0 for single-threaded): on
// cancellation it stops promptly and returns the per-query lists
// completed so far (unprocessed slots stay nil; the query cut short
// keeps its best-so-far partial) together with an ErrDeadline-wrapping
// error. A nil error flags every list as exact.
func (l *LEMP) TopKJoinContext(ctx context.Context, queries *Matrix, k, workers int) ([][]Result, error) {
	raw, err := l.idx.TopKJoinContext(ctx, queries.m, k, workers)
	return convertLists(raw), err
}

var _ Searcher = (*LEMP)(nil)

// MiniBatch is the blocked-matrix-multiplication batch baseline.
type MiniBatch struct {
	mb *batch.MiniBatch
}

// NewMiniBatch creates a batched GEMM engine (batchSize ≤ 0 → 100,
// workers ≤ 0 → GOMAXPROCS).
func NewMiniBatch(items *Matrix, batchSize, workers int) *MiniBatch {
	return &MiniBatch{mb: batch.New(items.m, batch.Options{BatchSize: batchSize, Workers: workers})}
}

// TopKAll returns the top-k list for every query row.
func (m *MiniBatch) TopKAll(queries *Matrix, k int) [][]Result {
	out, _ := m.TopKAllContext(context.Background(), queries, k)
	return out
}

// TopKAllContext behaves like TopKAll but honours ctx between query
// batches: on cancellation it returns the batches completed so far
// (unprocessed query rows stay nil) with an ErrDeadline-wrapping error.
// Every filled slot holds the exact top-k for its query.
func (m *MiniBatch) TopKAllContext(ctx context.Context, queries *Matrix, k int) ([][]Result, error) {
	raw, err := m.mb.TopKAllContext(ctx, queries.m, k)
	return convertLists(raw), err
}
