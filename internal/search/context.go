package search

import (
	"context"
	"errors"
	"fmt"
)

// ErrDeadline is returned by SearchContext when the query is cancelled
// — by a context deadline, an explicit cancel, or an injected fault —
// before the scan completed. Results returned ALONGSIDE this error are
// the best-so-far partial top-k: every returned score is a true inner
// product, but items not yet reached by the scan may be missing, so
// the set must be treated as inexact. A nil error is the exactness
// flag: only a (results, nil) return is guaranteed to be the exact
// top-k.
var ErrDeadline = errors.New("search: scan cancelled before completion")

// CheckStride is the number of scanned items (or tree nodes) between
// context-cancellation polls, and so between two firings of an injected
// scan fault. The guard costs two predictable branches per item plus one
// Poll per stride (Naive runs stride-sized chunks with no per-item branch
// at all); at 1024 this is under 1% of even a d = 1 naive scan, which
// BenchmarkSearchContextOverhead in bench_test.go verifies.
const CheckStride = 1024

// StrideMask is the bitmask form of CheckStride for i&StrideMask == 0
// poll tests.
const StrideMask = CheckStride - 1

// ContextSearcher is Searcher under the name it had while SearchContext
// was an optional extra. The frozen benchmark/ package is the alias's
// remaining user; everything else says Searcher.
type ContextSearcher = Searcher

// Canceled wraps cause so the result satisfies
// errors.Is(err, ErrDeadline), preserving an already-wrapped error.
func Canceled(cause error) error {
	if cause == nil {
		return ErrDeadline
	}
	if errors.Is(cause, ErrDeadline) {
		return cause
	}
	return fmt.Errorf("%w: %v", ErrDeadline, cause)
}

// Poll is the scan-loop guard slow path: one ctx.Err call, and when that
// reports ctx done, its cause wrapped in ErrDeadline. Loops call it when
// the context is cancellable AND the item index lands on a stride
// boundary:
//
//	done := ctx.Done()
//	for i := 0; i < n; i++ {
//		if done != nil && i&search.StrideMask == 0 {
//			if err := search.Poll(ctx); err != nil {
//				return c.Results(), err
//			}
//		}
//		...
//	}
//
// so the uncancelled hot path pays the guard's two branches per item, and a
// cancellable-but-unexpired scan one Poll per CheckStride items. Injected
// faults arrive the same way, as a context (faults.Hook.Context).
func Poll(ctx context.Context) error {
	if ctx.Err() != nil {
		return Canceled(context.Cause(ctx))
	}
	return nil
}
