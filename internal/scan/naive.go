// Package scan implements the sequential-scan retrieval baselines of
// Section 2.2: the Naive full scan and SS-L, the LEMP-style single-query
// sorted scan operating on normalized vectors. The Cauchy–Schwarz sorted
// scan SS with incremental pruning (Algorithms 1 and 2) is FEXIPRO with
// no technique switched on and strict comparisons, so the method registry
// builds it from internal/core (variant F, PruneSlack < 0) rather than
// from a second copy of that loop here.
//
// Every baseline exposes its scan as a range-scan over a contiguous row
// interval: one shard of the sharded execution engine, which at one
// shard is the classic sequential scan (see the *Kernel types in
// kernel.go and DESIGN.md §11).
package scan

import (
	"context"

	"fexipro/internal/faults"
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
	hook  *faults.Hook
	stats search.Stats
}

// NewNaive indexes the item matrix (rows are item vectors). The matrix is
// used as-is and must not be mutated afterwards.
func NewNaive(items *vec.Matrix) *Naive {
	return &Naive{items: items}
}

// SetFaultHook installs (or, with nil, removes) the fault-injection
// hook called once per scanned item.
func (n *Naive) SetFaultHook(h *faults.Hook) { n.hook = h }

// Search implements search.Searcher.
func (n *Naive) Search(q []float64, k int) []topk.Result {
	res, _ := n.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements search.Searcher: the scan polls ctx
// every search.CheckStride items and returns the best-so-far partial
// top-k with an ErrDeadline-wrapping error on cancellation.
func (n *Naive) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error) {
	n.stats = search.Stats{}
	c := topk.New(k)
	err := n.scanRange(ctx, n.hook, q, 0, n.items.Rows, c, &n.stats)
	return c.Results(), err
}

// scanRange scans rows [lo, hi), offering every inner product to c.
// ctx is polled at RANGE-LOCAL indices (i−lo) so each shard of a
// sharded scan polls at its own first item.
//
// Naive is the cheapest per-item scan in the repository (a bare dot
// product), so it is the one place where even a predictable per-item
// branch shows up in profiles. The rows are therefore scored in chunks
// with no guard inside and one search.Poll between chunks: a stride's
// worth of rows, or — under a fault hook, which is owed an OnItem call
// per row — one. The matrix header is read once, outside both loops: a
// reload per row costs 3 % at d = 1. BenchmarkSearchContextOverhead in
// bench_test.go holds the hook-less scan within 1% of a guard-free loop
// there.
func (n *Naive) scanRange(ctx context.Context, hook *faults.Hook, q []float64, lo, hi int, c *topk.Collector, stats *search.Stats) error {
	data, d := n.items.Data, n.items.Cols
	chunk := search.CheckStride
	if hook != nil {
		chunk = 1
	}
	for base := lo; base < hi; base += chunk {
		if err := search.Poll(ctx, hook, base-lo); err != nil {
			stats.Scanned += base - lo
			stats.FullProducts += base - lo
			return err
		}
		end := min(base+chunk, hi)
		//fex:hot
		for i := base; i < end; i++ {
			c.Push(i, vec.Dot(q, data[i*d:(i+1)*d]))
		}
	}
	stats.Scanned += hi - lo
	stats.FullProducts += hi - lo
	return nil
}

// Stats implements search.Searcher.
func (n *Naive) Stats() search.Stats { return n.stats }

var _ search.Searcher = (*Naive)(nil)
