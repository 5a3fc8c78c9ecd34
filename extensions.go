package fexipro

import (
	"context"
	"os"

	"fexipro/internal/aip"
	"fexipro/internal/core"
)

// SaveIndex writes the preprocessed index to path, so a later process
// can LoadIndex instead of repeating the O(n·d²) preprocessing.
func (f *FEXIPRO) SaveIndex(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.idx.WriteTo(file); err != nil {
		_ = file.Close() // the write error is the one worth reporting
		return err
	}
	return file.Close()
}

// LoadIndex reads an index written by SaveIndex. The loaded searcher
// answers queries identically (same results, same pruning decisions) to
// the one that was saved.
func LoadIndex(path string) (*FEXIPRO, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	idx, err := core.ReadIndex(file)
	if err != nil {
		return nil, err
	}
	return newFEXIPRO(idx, 1, 1), nil
}

// SearchAbove returns every item whose inner product with q is at least
// t, sorted by descending score — the above-t retrieval mode (the
// original LEMP task, listed as future work in the FEXIPRO paper). The
// threshold comparison is subject to float64 rounding of the products
// (~1e-12 relative); thresholds exactly equal to an item's score are
// inherently knife-edge. A NaN or +Inf threshold returns nothing, -Inf
// every item. It is the same engine run as Search — the pruning cascade
// against a threshold that starts at t and stays there — so it honours
// Options.Shards and Workers, and LastStats reports it.
func (f *FEXIPRO) SearchAbove(q []float64, t float64) []Result {
	res, _ := f.SearchAboveContext(context.Background(), q, t)
	return res
}

// SearchAboveContext behaves like SearchAbove but honours ctx: on
// cancellation it returns the (sorted) items found so far with an
// ErrDeadline-wrapping error; the set may be missing qualifying items.
func (f *FEXIPRO) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]Result, error) {
	res, err := f.eng.SearchAboveContext(ctx, q, t)
	return convertResults(res), err
}

// SearchAbove returns every item with qᵀp ≥ t using LEMP's bucketized
// scan (its native problem formulation).
func (l *LEMP) SearchAbove(q []float64, t float64) []Result {
	return convertResults(l.idx.SearchAbove(q, t))
}

// SearchAboveContext behaves like SearchAbove but honours ctx: on
// cancellation it returns the (sorted) items found so far with an
// ErrDeadline-wrapping error; the set may be missing qualifying items.
func (l *LEMP) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]Result, error) {
	res, err := l.idx.SearchAboveContext(ctx, q, t)
	return convertResults(res), err
}

// AboveJoin answers the batch above-t task: for every query row, all
// items with product ≥ t.
func (l *LEMP) AboveJoin(queries *Matrix, t float64) [][]Result {
	return convertLists(l.idx.AboveJoin(queries.m, t))
}

// Dynamic is an exact top-k index over a mutable item catalog: a
// preprocessed FEXIPRO index plus a small delta buffer and tombstones,
// rebuilt automatically as changes accumulate. IDs returned by Search
// are stable catalog IDs (initial row indices, then Add's return
// values), and never resurrect deleted items.
//
// With Options.Shards > 1 the catalog is split into that many
// independently indexed shards (stable mapping id mod Shards): a single
// Add or Delete only ever rebuilds the one shard owning the item,
// cutting the amortized rebuild cost ~Shards×, and queries fan out
// across the shards through the sharded execution engine. Per-shard
// preprocessing means scores match the monolithic index to float
// tolerance rather than bitwise; they remain exact inner products.
type Dynamic struct {
	di *core.DynamicIndex
}

// NewDynamic starts a dynamic index from an initial catalog (it may have
// zero rows, but must have a positive column count). opts selects the
// FEXIPRO variant used for the indexed tier plus the shard/worker
// configuration.
func NewDynamic(initial *Matrix, opts Options) (*Dynamic, error) {
	copts, err := opts.internal()
	if err != nil {
		return nil, err
	}
	shards, workers := opts.Shards, opts.Workers
	if shards < 1 {
		shards = 1
	}
	if workers == 0 {
		workers = 1
	}
	di, err := core.NewDynamicIndexSharded(initial.m, copts, 0, shards, workers)
	if err != nil {
		return nil, err
	}
	return &Dynamic{di: di}, nil
}

// Shards reports the number of independent catalog shards.
func (d *Dynamic) Shards() int { return d.di.Shards() }

// Add inserts an item, returning its stable catalog ID.
func (d *Dynamic) Add(item []float64) (int, error) { return d.di.Add(item) }

// Delete retires an item by catalog ID.
func (d *Dynamic) Delete(id int) error { return d.di.Delete(id) }

// Len returns the number of live items.
func (d *Dynamic) Len() int { return d.di.Len() }

// Search implements Searcher over the live catalog.
func (d *Dynamic) Search(q []float64, k int) []Result {
	return convertResults(d.di.Search(q, k))
}

// SearchContext implements Searcher: on cancellation it returns the
// best-so-far partial top-k and an ErrDeadline-wrapping error.
func (d *Dynamic) SearchContext(ctx context.Context, q []float64, k int) ([]Result, error) {
	res, err := d.di.SearchContext(ctx, q, k)
	return convertResults(res), err
}

// SearchAbove returns every live item with qᵀp ≥ t, sorted by
// descending score.
func (d *Dynamic) SearchAbove(q []float64, t float64) []Result {
	return convertResults(d.di.SearchAbove(q, t))
}

// SearchAboveContext behaves like SearchAbove but honours ctx,
// returning the sorted partial result set with an ErrDeadline-wrapping
// error on cancellation.
func (d *Dynamic) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]Result, error) {
	res, err := d.di.SearchAboveContext(ctx, q, t)
	return convertResults(res), err
}

// LastStats implements Searcher.
func (d *Dynamic) LastStats() Stats { return convertStats(d.di.Stats()) }

var _ Searcher = (*Dynamic)(nil)

// Pair is one (user, item) entry of an all-pairs top-k result.
type Pair struct {
	User, Item int
	Score      float64
}

// TopPairs returns the k largest inner products across ALL (user, item)
// pairs, exactly — the AIP problem of Ballard et al., driven by a
// FEXIPRO index with a global threshold.
func TopPairs(users, items *Matrix, k int) ([]Pair, error) {
	raw, err := aip.Exact(users.m, items.m, k, core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		return nil, err
	}
	return convertPairs(raw), nil
}

// TopPairsSampled approximates TopPairs by diamond-style sampling with
// exact verification of the sampled candidates: returned scores are true
// inner products, but the candidate set may miss true top-k pairs.
// samples ≤ 0 selects 100,000.
func TopPairsSampled(users, items *Matrix, k, samples int, seed int64) ([]Pair, error) {
	raw, err := aip.Sample(users.m, items.m, k, aip.SampleConfig{Samples: samples, Seed: seed})
	if err != nil {
		return nil, err
	}
	return convertPairs(raw), nil
}

func convertPairs(in []aip.Pair) []Pair {
	out := make([]Pair, len(in))
	for i, p := range in {
		out[i] = Pair{User: p.User, Item: p.Item, Score: p.Score}
	}
	return out
}
