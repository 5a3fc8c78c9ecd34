package server

import (
	"net/http"
	"time"

	"fexipro/internal/obs"
)

// This file is the serving side of DESIGN.md §13: per-query span
// collection, the /debug/queries slow-query ring, and the scrape-time
// refresh of the windowed quantile and uptime gauges.

// traceStart opens a root span for a traced request and returns a
// context carrying it. With tracing disabled it returns ctx unchanged
// and a nil span — every downstream span call is then a no-op.
func (s *Server) traceStart(r *http.Request, method string) (*http.Request, *obs.Span) {
	if !s.cfg.Trace {
		return r, nil
	}
	root := obs.NewRoot(method)
	return r.WithContext(obs.ContextWithSpan(r.Context(), root)), root
}

// traceFinish ends the root span, surfaces its stage summary to the
// request log line, and records the completed tree into the
// slow-query ring when the request crossed Config.SlowQuery (0 records
// everything traced). Safe on a nil root (untraced request).
func (s *Server) traceFinish(r *http.Request, root *obs.Span, method string, k int, took time.Duration, exact bool, st *obs.StageCounters) {
	if root == nil {
		return
	}
	root.End()
	if info := reqInfoFrom(r.Context()); info != nil {
		info.hasSpans = true
		info.transform = root.ChildDuration("transform")
		info.scan = root.ChildDuration("scan")
		info.merge = root.ChildDuration("merge")
		info.rebuild = root.ChildDuration("rebuild")
	}
	if took < s.cfg.SlowQuery {
		return
	}
	s.ring.Record(obs.TraceEntry{
		TraceID: traceIDFrom(r.Context()),
		Method:  method,
		K:       k,
		At:      time.Now(),
		Took:    took,
		Exact:   exact,
		Stats:   st,
		Root:    root,
	})
}

// traceEntryJSON is one /debug/queries element: the query's identity
// and outcome plus its complete span tree.
type traceEntryJSON struct {
	TraceID    string             `json:"traceId"`
	Method     string             `json:"method"`
	K          int                `json:"k,omitempty"`
	At         string             `json:"at"`
	TookMicros int64              `json:"tookMicros"`
	Exact      bool               `json:"exact"`
	Stats      *obs.StageCounters `json:"stats,omitempty"`
	Span       obs.SpanJSON       `json:"span"`
}

// debugQueriesResponse is the GET /debug/queries body.
type debugQueriesResponse struct {
	Enabled     bool             `json:"enabled"`
	SlowQueryMs float64          `json:"slowQueryMs"`
	Recorded    uint64           `json:"recorded"`
	Entries     []traceEntryJSON `json:"entries"`
}

// handleDebugQueries serves the slow-query log: the most recent traced
// queries (newest first) as complete span trees. With tracing disabled
// it answers enabled:false and an empty list rather than 404, so
// probers can tell "off" from "no slow queries yet".
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	resp := debugQueriesResponse{
		Enabled:     s.cfg.Trace,
		SlowQueryMs: float64(s.cfg.SlowQuery.Microseconds()) / 1e3,
		Recorded:    s.ring.Total(),
		Entries:     []traceEntryJSON{},
	}
	for _, e := range s.ring.Entries() {
		resp.Entries = append(resp.Entries, traceEntryJSON{
			TraceID:    e.TraceID,
			Method:     e.Method,
			K:          e.K,
			At:         e.At.UTC().Format(time.RFC3339Nano),
			TookMicros: e.Took.Microseconds(),
			Exact:      e.Exact,
			Stats:      e.Stats,
			Span:       e.Root.Snapshot(),
		})
	}
	writeJSON(w, resp)
}

// metricsHandler wraps the registry's Prometheus handler with a
// scrape-time refresh of the gauges whose values are derived rather
// than event-driven: uptime and the sliding-window latency quantiles.
func (s *Server) metricsHandler() http.Handler {
	inner := s.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.refreshDerivedGauges()
		inner.ServeHTTP(w, r)
	})
}

// refreshDerivedGauges recomputes uptime and the window quantile
// gauges from the current sliding-window snapshot.
func (s *Server) refreshDerivedGauges() {
	s.uptime.Set(time.Since(s.start).Seconds())
	snap := s.window.Snapshot()
	for i, q := range obs.WindowQuantiles {
		s.quantiles[i].Set(snap.Quantile(q))
	}
}
