package engine

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/vec"
)

// ByNormDesc returns the rows of queries in the order every batch task
// processes them — decreasing norm, rows of equal norm in row order
// (LEMP's locality optimisation: consecutive queries scan similar
// prefixes of the norm-sorted items, and a global threshold rises
// fastest) — and the norms by row.
func ByNormDesc(queries *vec.Matrix) (order []int, norms []float64) {
	norms = queries.RowNorms()
	order = make([]int, queries.Rows)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(norms[b], norms[a]) })
	return order, norms
}

// Batch is the one loop under the batch tasks (core.BatchTopKContext,
// lemp.Index.TopKJoinContext): the rows of queries in ByNormDesc order,
// cut into at most workers contiguous chunks, each handed to chunk —
// which owns whatever per-worker state it needs — on a goroutine of its
// own. One chunk (workers ≤ 1, or a single query) is the sequential form
// and runs on the calling goroutine with ctx. Concurrent chunks each get
// ctx with a copy of its Query — its span, a sink of their own — so they
// share its cancellation and any fault it injects, and the sinks are
// added to ctx's once every chunk has returned. A chunk stops at its
// first error; Batch returns the first chunk's in chunk order, so the
// error does not depend on the schedule.
func Batch(ctx context.Context, queries *vec.Matrix, workers int, chunk func(ctx context.Context, rows []int) error) error {
	order, _ := ByNormDesc(queries)
	workers = max(workers, 1)
	size := max((len(order)+workers-1)/workers, 1)
	if size >= len(order) {
		return chunk(ctx, order)
	}
	q := obs.QueryFrom(ctx)
	errs := make([]error, (len(order)+size-1)/size)
	sinks := make([]search.Stats, len(errs))
	var wg sync.WaitGroup
	for ci := range errs {
		part := order[ci*size : min((ci+1)*size, len(order))]
		cctx := obs.WithStats(ctx, &sinks[ci])
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = chunk(cctx, part)
		}()
	}
	wg.Wait()
	for _, st := range sinks {
		q.AddStats(st)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
