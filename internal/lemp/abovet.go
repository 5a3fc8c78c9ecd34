package lemp

import (
	"context"

	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// SearchAbove answers LEMP's original problem for one query: every item
// with qᵀp ≥ t, sorted by descending score. It is the top-k bucket scan
// into a collector whose threshold is fixed at t (topk.NewAbove): buckets
// are visited in decreasing max-norm order and the scan stops at the
// first bucket whose best possible product is below t.
func (idx *Index) SearchAbove(q []float64, t float64) []topk.Result {
	res, _ := idx.SearchAboveContext(context.Background(), q, t)
	return res
}

// SearchAboveContext behaves like SearchAbove but honours ctx: the
// bucket scan polls cancellation every search.CheckStride items (and on
// every item when a fault hook is installed) and returns the (sorted)
// qualifying items found so far with an ErrDeadline-wrapping error. On
// cancellation the set may be missing qualifying items, but every
// returned score is a true inner product.
func (idx *Index) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]topk.Result, error) {
	idx.stats = search.Stats{}
	c := topk.NewAbove(t)
	err := idx.scanBuckets(ctx, idx.hook, idx.prepareQuery(q), 0, len(idx.buckets), c, nil, &idx.stats)
	return c.Results(), err
}

// AboveJoin answers the batch above-t task: for every query row, all
// items with product ≥ t.
func (idx *Index) AboveJoin(queries *vec.Matrix, t float64) [][]topk.Result {
	out := make([][]topk.Result, queries.Rows)
	var acc search.Stats
	for i := 0; i < queries.Rows; i++ {
		out[i] = idx.SearchAbove(queries.Row(i), t)
		acc.Add(idx.stats)
	}
	idx.stats = acc
	return out
}
