// Package search defines the contract shared by every top-k inner-product
// retrieval method in this repository, and the instrumentation counters
// that back the paper's pruning-power tables (Tables 3 and 7) and cost
// distribution figures (Figures 9 and 12).
package search

import (
	"context"

	"fexipro/internal/topk"
)

// Searcher answers exact (or, for PCATree, approximate) top-k inner
// product queries against a fixed item matrix.
type Searcher interface {
	// Search returns the k items with the largest inner products with q,
	// sorted by descending score. Fewer than k results are returned only
	// when the index holds fewer than k items.
	Search(q []float64, k int) []topk.Result
	// SearchContext behaves like Search but honours ctx: the scan loops
	// poll it every CheckStride items, and on cancellation promptly
	// return the best-so-far results and an error satisfying
	// errors.Is(err, ErrDeadline). A nil error flags the results as
	// exact. It adds the query's counters — a cancelled query's too — to
	// the sink of the query value ctx carries (obs.Query), if any. A scan
	// fault is a context too (faults.Hook.Context): it fires on the polls.
	SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error)
}

// Stats counts the work done by one Search call.
type Stats struct {
	// Scanned is the number of item vectors reached by the scan (or tree
	// leaves touched) before termination.
	Scanned int
	// PrunedByLength counts items skipped via the Cauchy–Schwarz length
	// bound ‖q‖·‖p‖ ≤ t, including everything cut off by early
	// termination of the sorted scan.
	PrunedByLength int
	// PrunedByIntHead / PrunedByIntFull count prunes by the partial
	// (Eq. 6) and full (Eq. 3) integer upper bounds.
	PrunedByIntHead int
	PrunedByIntFull int
	// PrunedByIncremental counts prunes by the float incremental bound
	// (Eq. 1) after w exact dimensions.
	PrunedByIncremental int
	// PrunedByMonotone counts prunes by the monotonicity-reduction bound
	// (Lemma 1 + Theorem 4).
	PrunedByMonotone int
	// FullProducts is the number of ENTIRE qᵀp computations — the metric
	// of Tables 3 and 7.
	FullProducts int
	// NodesVisited counts tree nodes expanded (tree methods only).
	NodesVisited int
}

// TotalPruned is the collapsed pruning count: every item eliminated by
// any of the five bounds without computing its full inner product. This
// is the one place the five stage counters are summed — callers that
// need a single "pruned" figure (public API, JSON responses, tables)
// must use it rather than re-summing by hand.
func (s Stats) TotalPruned() int {
	return s.PrunedByLength + s.PrunedByIntHead + s.PrunedByIntFull +
		s.PrunedByIncremental + s.PrunedByMonotone
}

// Add accumulates other into s (the shards of one query, the queries of a
// sink).
func (s *Stats) Add(other Stats) {
	s.Scanned += other.Scanned
	s.PrunedByLength += other.PrunedByLength
	s.PrunedByIntHead += other.PrunedByIntHead
	s.PrunedByIntFull += other.PrunedByIntFull
	s.PrunedByIncremental += other.PrunedByIncremental
	s.PrunedByMonotone += other.PrunedByMonotone
	s.FullProducts += other.FullProducts
	s.NodesVisited += other.NodesVisited
}
