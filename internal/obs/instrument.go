package obs

import (
	"context"
	"time"

	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// Instrumented wraps any search.Searcher so every Search call feeds the
// cumulative per-stage counters and the latency histogram of a
// SearchRecorder, while remaining a drop-in search.Searcher (Stats
// still reports the last call, as the interface contracts).
//
// Like the searchers it wraps, Instrumented is not safe for concurrent
// Search calls — FEXIPRO retrievers are single-goroutine — but the
// recorder it feeds is, so many Instrumented instances (e.g. one per
// shard or replica goroutine) may share one recorder.
type Instrumented struct {
	inner search.Searcher
	rec   *SearchRecorder
}

// Instrument wraps s so its work is recorded in reg under the given
// variant label.
func Instrument(s search.Searcher, reg *Registry, variant string) *Instrumented {
	return &Instrumented{inner: s, rec: NewSearchRecorder(reg, variant)}
}

// InstrumentWith wraps s with an existing recorder (shared across
// wrappers).
func InstrumentWith(s search.Searcher, rec *SearchRecorder) *Instrumented {
	return &Instrumented{inner: s, rec: rec}
}

// Search answers the query through the wrapped searcher and records its
// counters and latency.
func (w *Instrumented) Search(q []float64, k int) []topk.Result {
	res, _ := w.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements search.Searcher, recording counters
// and latency for cancelled scans too (partial work is still work).
func (w *Instrumented) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error) {
	start := time.Now()
	res, err := w.inner.SearchContext(ctx, q, k)
	w.rec.RecordSearch(w.inner.Stats(), time.Since(start).Seconds())
	return res, err
}

// Stats reports the counters of the most recent Search call.
func (w *Instrumented) Stats() search.Stats { return w.inner.Stats() }

// Unwrap returns the wrapped searcher.
func (w *Instrumented) Unwrap() search.Searcher { return w.inner }

var _ search.Searcher = (*Instrumented)(nil)
