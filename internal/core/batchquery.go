package core

import (
	"context"
	"fmt"

	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// BatchTopK answers the top-k lists for every query row against one
// shared index — the "unified framework for both single and batch
// retrieval" the paper sketches as future work (Section 9). It applies
// LEMP's two batch-side optimizations that are compatible with the
// FEXIPRO cascade:
//
//   - queries are processed in decreasing norm order, which keeps the
//     per-query scan prefixes aligned with the norm-sorted items for
//     cache locality, and
//   - queries are sharded across workers, each with its own Retriever
//     over the shared immutable index
//
// — search.Batch, the loop it shares with lemp.TopKJoinContext. Results
// are returned in input order. workers ≤ 0 uses one worker.
func BatchTopK(idx *Index, queries *vec.Matrix, k, workers int) ([][]topk.Result, error) {
	return BatchTopKContext(context.Background(), idx, queries, k, workers)
}

// BatchTopKContext behaves like BatchTopK but honours ctx: on
// cancellation it stops promptly and returns the per-query lists
// completed so far (unprocessed slots stay nil; the query cut short
// keeps its best-so-far partial) together with an ErrDeadline-wrapping
// error. A nil error flags every list as exact.
func BatchTopKContext(ctx context.Context, idx *Index, queries *vec.Matrix, k, workers int) ([][]topk.Result, error) {
	if queries.Cols != idx.d {
		return nil, fmt.Errorf("core: query dim %d != item dim %d", queries.Cols, idx.d)
	}
	out := make([][]topk.Result, queries.Rows)
	err := search.Batch(queries, workers, func(rows []int) error {
		r := NewRetriever(idx)
		for _, qi := range rows {
			res, err := r.SearchContext(ctx, queries.Row(qi), k)
			out[qi] = res
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, search.Canceled(err)
	}
	return out, nil
}
