package search

import (
	"cmp"
	"slices"
	"sync"

	"fexipro/internal/vec"
)

// ByNormDesc returns the rows of queries in the order every batch task
// here processes them — decreasing norm, rows of equal norm in row order
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

// Batch is the one loop under the batch tasks: the rows of queries in
// ByNormDesc order, cut into at most workers contiguous chunks, each
// handed to chunk — which owns whatever per-worker state it needs — on a
// goroutine of its own. One chunk (workers ≤ 1, or a single query) is the
// sequential form and runs on the calling goroutine. A chunk stops at its
// first error; Batch returns the first chunk's in chunk order, so the
// error does not depend on the schedule.
func Batch(queries *vec.Matrix, workers int, chunk func(rows []int) error) error {
	order, _ := ByNormDesc(queries)
	workers = max(workers, 1)
	size := max((len(order)+workers-1)/workers, 1)
	if size >= len(order) {
		return chunk(order)
	}
	errs := make([]error, (len(order)+size-1)/size)
	var wg sync.WaitGroup
	for ci := range errs {
		part := order[ci*size : min((ci+1)*size, len(order))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = chunk(part)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
