// Package scan implements the Naive full scan of Section 2.2, the ground
// truth for every exactness test. The other sequential scans are
// configurations of indexes that live elsewhere, so no second copy of
// their loops lives here: the Cauchy–Schwarz sorted scan SS with
// incremental pruning (Algorithms 1 and 2) is FEXIPRO with no technique
// switched on and strict comparisons (internal/core, variant F,
// PruneSlack < 0), and SS-L, the LEMP-style sorted scan over normalized
// vectors, is lemp.NewSSL.
//
// Naive exposes its scan as a range-scan over a contiguous row interval:
// one shard of the sharded execution engine, which at one shard is the
// classic sequential scan (NaiveKernel in kernel.go, DESIGN.md §11).
package scan

import (
	"context"

	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Naive scans every item and computes every inner product, tracking the
// top-k with a bounded heap — the paper's Naive baseline and the ground
// truth for all exactness tests.
//
// It is one of the two sequential searchers left beside engine.Engine
// (core.Retriever is the other), and it stays because it is the
// reference: every exactness test and the repository benchmark's oracle
// compare an engine's answer against Naive.SearchContext, which must
// therefore not itself run through the engine. The registry does not
// reach it — the registered "Naive" is NaiveKernel under the engine,
// over the same scanRange.
type Naive struct {
	items *vec.Matrix
}

// NewNaive indexes the item matrix (rows are item vectors). The matrix is
// used as-is and must not be mutated afterwards.
func NewNaive(items *vec.Matrix) *Naive {
	return &Naive{items: items}
}

// Search implements search.Searcher.
func (n *Naive) Search(q []float64, k int) []topk.Result {
	res, _ := n.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements search.Searcher: the scan polls ctx
// every search.CheckStride items and returns the best-so-far partial
// top-k with an ErrDeadline-wrapping error on cancellation.
func (n *Naive) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error) {
	qv := obs.QueryFrom(ctx)
	var st search.Stats
	c := topk.New(k)
	err := n.scanRange(ctx, q, 0, n.items.Rows, c, &st)
	qv.AddStats(st)
	return c.Results(), err
}

// scanRange scans rows [lo, hi), offering every inner product to c.
// ctx is polled at RANGE-LOCAL indices (i−lo) so each shard of a
// sharded scan polls at its own first item.
//
// Naive is the cheapest per-item scan in the repository (a bare dot
// product), so it is the one place where even a predictable per-item
// branch shows up in profiles. The rows are therefore scored in chunks
// with no guard inside and one search.Poll before each stride's worth of
// rows. The matrix header is read once, outside both loops: a reload per
// row costs 3 % at d = 1. BenchmarkSearchContextOverhead in bench_test.go
// holds the scan within 1% of a guard-free loop there.
func (n *Naive) scanRange(ctx context.Context, q []float64, lo, hi int, c *topk.Collector, stats *search.Stats) error {
	data, d := n.items.Data, n.items.Cols
	for base := lo; base < hi; base += search.CheckStride {
		if err := search.Poll(ctx); err != nil {
			stats.Scanned += base - lo
			stats.FullProducts += base - lo
			return err
		}
		end := min(base+search.CheckStride, hi)
		//fex:hot
		for i := base; i < end; i++ {
			c.Push(i, vec.Dot(q, data[i*d:(i+1)*d]))
		}
	}
	stats.Scanned += hi - lo
	stats.FullProducts += hi - lo
	return nil
}

var _ search.Searcher = (*Naive)(nil)
