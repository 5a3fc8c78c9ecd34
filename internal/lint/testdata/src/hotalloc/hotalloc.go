// Package hotalloc is a fexlint golden fixture for //fex:hot loops: no
// allocations, interface boxing, closures, per-iteration defers, or
// span starts inside a marked loop. Unmarked loops are unconstrained.
package hotalloc

import (
	"context"

	"fexipro/internal/obs"
)

type pair struct{ a, b float64 }

func sink(v any) {}

func work() {}

func hot(items []float64, out []float64) []float64 {
	//fex:hot
	for _, v := range items {
		out = append(out, v) // want `append inside a //fex:hot loop`
	}

	//fex:hot
	for range items {
		buf := make([]float64, 4) // want `make inside a //fex:hot loop`
		_ = buf
		p := new(pair) // want `new inside a //fex:hot loop`
		_ = p
	}

	sum := 0.0
	//fex:hot
	for _, v := range items {
		f := func() float64 { return v } // want `function literal inside a //fex:hot loop`
		sum += f()
		defer work() // want `defer inside a //fex:hot loop`
		go work()    // want `go statement inside a //fex:hot loop`
	}
	_ = sum

	s := ""
	//fex:hot
	for _, v := range items {
		p := pair{a: v} // want `composite literal inside a //fex:hot loop`
		_ = p
		s = s + "x" // want `string concatenation inside a //fex:hot loop`
		sink(v)     // want `argument boxes float64 into an interface`
	}
	_ = s

	// Unmarked loop: anything goes.
	for _, v := range items {
		out = append(out, v)
		sink(v)
	}
	return out
}

// interfaces passed through are not re-boxed.
func forward(vals []any) {
	//fex:hot
	for _, v := range vals {
		sink(v)
		sink(nil)
	}
}

// Spans are per-query instrumentation: starting one per scanned item
// is flagged, in all three spellings. Attribute/End calls on an
// already-open span are allowed (nil no-ops on the untraced path).
func spans(ctx context.Context, items []float64) {
	parent := obs.QueryFrom(ctx).Span
	//fex:hot
	for range items {
		s := obs.NewRoot("scan") // want `obs.NewRoot inside a //fex:hot loop starts a span per scanned item`
		_ = s
		_, c := obs.StartSpan(ctx, "item") // want `obs.StartSpan inside a //fex:hot loop starts a span per scanned item`
		_ = c
		g := parent.StartChild("item") // want `obs.StartChild inside a //fex:hot loop starts a span per scanned item`
		_ = g
		parent.AttrInt("scanned", 1) // fine: no span starts here
	}
	// Outside the loop: spans at query granularity are the point.
	sp := parent.StartChild("post")
	sp.End()
}
