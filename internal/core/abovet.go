package core

import (
	"context"
	"fmt"

	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// SearchAbove returns every item whose inner product with q is at least
// t, sorted by descending score — the paper's "above-t" problem (its
// Section 9 future work; the original LEMP task). The whole pruning
// cascade applies unchanged because the threshold is constant: the
// sorted scan stops at the first item with ‖q‖·‖p‖ < t, and
// per-candidate bounds below t discard candidates without full products.
func (r *Retriever) SearchAbove(q []float64, t float64) []topk.Result {
	res, _ := r.SearchAboveContext(context.Background(), q, t)
	return res
}

// SearchAboveContext behaves like SearchAbove but honours ctx: the scan
// polls ctx every search.CheckStride items and returns the sorted
// best-so-far partial result with an ErrDeadline-wrapping error on
// cancellation.
func (r *Retriever) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]topk.Result, error) {
	idx := r.idx
	if len(q) != idx.d {
		panic(fmt.Sprintf("core: query dim %d != item dim %d", len(q), idx.d))
	}
	r.stats = search.Stats{}
	idx.prepareQuery(q, r.qs)
	qs := r.qs
	slack := idx.opts.PruneSlack
	done := ctx.Done()
	hook := r.hook

	var out []topk.Result
	for i := 0; i < idx.n; i++ {
		if hook != nil || (done != nil && i&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, i); err != nil {
				topk.SortResults(out)
				return out, err
			}
		}
		if qs.qNorm*idx.norms[i] < t {
			r.stats.PrunedByLength += idx.n - i
			break
		}
		r.stats.Scanned++
		// The cascade prunes only when a bound drops BELOW t (strictly,
		// minus the safety margin), so items with qᵀp == t survive.
		v, ok := idx.candidate(i, qs, t, slack, &r.stats)
		if ok && v >= t {
			out = append(out, topk.Result{ID: idx.perm[i], Score: v})
		}
	}
	topk.SortResults(out)
	return out, nil
}
