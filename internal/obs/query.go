package obs

import (
	"context"

	"fexipro/internal/search"
)

// Query is the per-query state a context carries under one key: the span
// the query's stages attach children to and the sink its counters are
// added to. Both are optional; the zero Query is untraced and uncounted.
// A searcher reads it once per query (QueryFrom), so no searcher holds
// per-query state. The span may be shared by concurrent queries; the sink
// must not be (engine.Batch gives each concurrent chunk its own).
type Query struct {
	Span  *Span
	Stats *search.Stats
}

// QueryKey is the context key of the Query. A context type of its own may
// answer it from Value with a *Query it holds, as the server's
// per-request record does, and so carry the Query with no allocation.
type QueryKey struct{}

// WithQuery returns a context carrying q.
func WithQuery(ctx context.Context, q Query) context.Context {
	return context.WithValue(ctx, QueryKey{}, &q)
}

// QueryFrom returns the Query ctx carries, or the zero Query: one
// ctx.Value lookup.
func QueryFrom(ctx context.Context) Query {
	if q, ok := ctx.Value(QueryKey{}).(*Query); ok {
		return *q
	}
	return Query{}
}

// WithStats returns ctx with its Query's sink set to st: every search under
// it adds its counters to st, which accumulates across them.
func WithStats(ctx context.Context, st *search.Stats) context.Context {
	q := QueryFrom(ctx)
	q.Stats = st
	return WithQuery(ctx, q)
}

// AddStats adds st to q's sink, if it has one.
func (q Query) AddStats(st search.Stats) {
	if q.Stats != nil {
		q.Stats.Add(st)
	}
}

// StartSpan starts a child of ctx's span and returns a context whose Query
// carries the child and the parent's sink; with no span it
// returns ctx unchanged and nil. The one-call idiom for a stage:
//
//	ctx, sp := obs.StartSpan(ctx, "rebuild")
//	defer sp.End()
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	q := QueryFrom(ctx)
	if q.Span == nil {
		return ctx, nil
	}
	q.Span = q.Span.StartChild(name)
	return WithQuery(ctx, q), q.Span
}
