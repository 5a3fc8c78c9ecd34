package scan

import (
	"context"

	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// SearchAbove returns every item with qᵀp ≥ t by exhaustive scan — the
// ground truth for the above-t retrieval mode.
func (n *Naive) SearchAbove(q []float64, t float64) []topk.Result {
	res, _ := n.SearchAboveContext(context.Background(), q, t)
	return res
}

// SearchAboveContext behaves like SearchAbove but honours ctx: the scan
// polls cancellation every search.CheckStride items and returns the
// (sorted) qualifying items found so far with an ErrDeadline-wrapping
// error; on cancellation the set may be missing items, but every
// returned score is a true inner product.
func (n *Naive) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]topk.Result, error) {
	qv := obs.QueryFrom(ctx)
	done := ctx.Done()
	var out []topk.Result
	var err error
	i := 0
	for ; i < n.items.Rows; i++ {
		if done != nil && i&search.StrideMask == 0 {
			if err = search.Poll(ctx); err != nil {
				break
			}
		}
		if v := vec.Dot(q, n.items.Row(i)); v >= t {
			out = append(out, topk.Result{ID: i, Score: v})
		}
	}
	qv.AddStats(search.Stats{Scanned: i, FullProducts: i})
	topk.SortResults(out)
	return out, err
}
