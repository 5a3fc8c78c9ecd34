package scan

import (
	"context"
	"fmt"

	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// SS is the basic optimized sequential scan of Algorithm 1: items sorted
// by decreasing length, Cauchy–Schwarz early termination, and incremental
// pruning (Algorithm 2) at a fixed checking dimension w.
type SS struct {
	items     *vec.Matrix // rows sorted by decreasing norm
	perm      []int       // perm[row] = original item ID
	norms     []float64   // ‖p‖ per sorted row
	tailNorms []float64   // ‖p^h‖ (coordinates w..d) per sorted row
	w         int
	hook      *faults.Hook
	stats     search.Stats
}

// NewSS indexes items (rows are item vectors; the matrix is copied so the
// caller's data is never reordered). w is the checking dimension for
// incremental pruning; w ≤ 0 selects the default d/5 (clamped to [1,d-1]),
// and w ≥ d disables incremental pruning.
func NewSS(items *vec.Matrix, w int) *SS {
	m, perm, norms := items.SortRowsByNormDesc()
	d := m.Cols
	if w <= 0 {
		w = clampW(d/5, d)
	}
	if w > d {
		w = d
	}
	s := &SS{items: m, perm: perm, w: w, norms: norms}
	s.tailNorms = make([]float64, m.Rows)
	for i := range s.tailNorms {
		s.tailNorms[i] = vec.NormRange(m.Row(i), w, d)
	}
	return s
}

func clampW(w, d int) int {
	if w < 1 {
		w = 1
	}
	if w >= d {
		w = d - 1
	}
	if w < 1 { // d == 1: no room for a residual; disable pruning
		w = d
	}
	return w
}

// W returns the checking dimension in use.
func (s *SS) W() int { return s.w }

// SetFaultHook installs (or, with nil, removes) the fault-injection
// hook called once per scanned item.
func (s *SS) SetFaultHook(h *faults.Hook) { s.hook = h }

// Search implements search.Searcher.
func (s *SS) Search(q []float64, k int) []topk.Result {
	res, _ := s.SearchContext(context.Background(), q, k)
	return res
}

// ssQuery is the per-query state shared read-only across shard scans.
type ssQuery struct {
	q     []float64
	qNorm float64
	qTail float64
}

func (s *SS) prepareQuery(q []float64) *ssQuery {
	if len(q) != s.items.Cols {
		panic(fmt.Sprintf("scan: query dim %d != item dim %d", len(q), s.items.Cols))
	}
	return &ssQuery{q: q, qNorm: vec.Norm(q), qTail: vec.NormRange(q, s.w, len(q))}
}

// SearchContext implements search.ContextSearcher: the scan polls ctx
// every search.CheckStride items and returns the best-so-far partial
// top-k with an ErrDeadline-wrapping error on cancellation.
func (s *SS) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error) {
	qs := s.prepareQuery(q)
	s.stats = search.Stats{}
	c := topk.New(k)
	if err := s.scanRange(ctx, s.hook, qs, 0, s.items.Rows, c, nil, &s.stats); err != nil {
		return c.Results(), err
	}
	return c.Results(), nil
}

// scanRange is Algorithm 1 over the sorted rows [lo, hi): Cauchy–
// Schwarz early termination (valid within any contiguous sub-range of
// the sorted order) plus the Algorithm 2 coordinate scan. Pruning is
// STRICT (a candidate is discarded only when its bound is strictly
// below the effective threshold) and the effective threshold is the
// max of the local heap's and the cross-shard shared one, so the
// surviving candidate set is independent of how [0, n) is partitioned.
// ctx is polled at RANGE-LOCAL indices (i−lo).
func (s *SS) scanRange(ctx context.Context, hook *faults.Hook, qs *ssQuery, lo, hi int, c *topk.Collector, shared *search.SharedThreshold, stats *search.Stats) error {
	done := ctx.Done()
	//fex:hot
	for i := lo; i < hi; i++ {
		if hook != nil || (done != nil && (i-lo)&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, i-lo); err != nil {
				return err
			}
		}
		t := shared.Floor(c.Threshold())
		lenBound := qs.qNorm * s.norms[i] //fex:bound
		if lenBound < t {
			// Everything after i has a smaller length: terminate this range.
			stats.PrunedByLength += hi - i
			return nil
		}
		stats.Scanned++
		row := s.items.Row(i)
		v, ok := s.coordinateScan(qs, row, s.tailNorms[i], t, stats)
		if ok {
			if c.Push(s.perm[i], v) && c.Len() == c.K() {
				shared.Publish(c.Threshold())
			}
		}
	}
	return nil
}

// coordinateScan is Algorithm 2: accumulate the first w products, attempt
// the Eq. 1 bound, then finish the product only if the bound fails. It
// returns the exact product and true, or (0, false) when pruned.
func (s *SS) coordinateScan(qs *ssQuery, p []float64, pTail, t float64, stats *search.Stats) (float64, bool) {
	q := qs.q
	d := len(q)
	if s.w >= d {
		stats.FullProducts++
		return vec.Dot(q, p), true
	}
	v := vec.DotRange(q, p, 0, s.w)
	ub := v + qs.qTail*pTail //fex:bound
	if ub < t {
		stats.PrunedByIncremental++
		return 0, false
	}
	stats.FullProducts++
	return v + vec.DotRange(q, p, s.w, d), true
}

// Stats implements search.Searcher.
func (s *SS) Stats() search.Stats { return s.stats }

var _ search.ContextSearcher = (*SS)(nil)
