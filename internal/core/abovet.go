package core

import (
	"context"

	"fexipro/internal/topk"
)

// SearchAbove returns every item whose inner product with q is at least
// t, sorted by descending score — the paper's "above-t" problem (its
// Section 9 future work; the original LEMP task). It needs no algorithm
// of its own: the whole pruning cascade applies unchanged because the
// threshold is constant, so this is the top-k scan into a collector whose
// threshold starts at t and never moves (topk.NewAbove) — the sorted scan
// stops at the first item with ‖q‖·‖p‖ < t, the block kernel and the
// per-candidate bounds discard what lies strictly below t, and a product
// equal to t survives every strict test and the collector's.
func (r *Retriever) SearchAbove(q []float64, t float64) []topk.Result {
	res, _ := r.SearchAboveContext(context.Background(), q, t)
	return res
}

// SearchAboveContext behaves like SearchAbove but honours ctx: the scan
// polls ctx every search.CheckStride items and returns the sorted
// best-so-far partial result with an ErrDeadline-wrapping error on
// cancellation.
func (r *Retriever) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]topk.Result, error) {
	r.begin(q)
	return r.scan(ctx, q, topk.NewAbove(t))
}
