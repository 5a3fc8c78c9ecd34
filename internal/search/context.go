package search

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fexipro/internal/faults"
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
// context-cancellation polls. Without a fault hook the guard costs two
// predictable branches per item plus one channel select per stride (the
// Naive scan goes further and runs stride-sized tight chunks with no
// per-item branch at all); at 1024 this amortizes to under 1% of the
// per-item work of even the cheapest scan (d = 1 naive dot products),
// which BenchmarkSearchContextOverhead in bench_test.go verifies on the
// uncancelled hot path.
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

// Poll is the scan-loop guard slow path. Loops call it only when a
// fault hook is installed, or the context is cancellable AND the item
// index lands on a stride boundary:
//
//	done := ctx.Done()
//	hook := s.hook
//	for i := 0; i < n; i++ {
//		if hook != nil || (done != nil && i&search.StrideMask == 0) {
//			if err := search.Poll(ctx, hook, i); err != nil {
//				return c.Results(), err
//			}
//		}
//		...
//	}
//
// so the uncancelled, un-faulted hot path pays two nil checks per item,
// and a cancellable-but-unexpired scan adds one Poll call (a channel
// select) per CheckStride items rather than per item. The returned
// error always wraps ErrDeadline.
func Poll(ctx context.Context, hook *faults.Hook, i int) error {
	// With a fault hook installed (a test scenario — production servers
	// run hook == nil) the context is checked on every call, not just at
	// stride boundaries: injected per-item latency simulates a
	// pathologically slow scan, and a deadline must cut that scan short
	// even when pruning ends it before the next stride boundary.
	//
	// The deadline itself is compared with the clock as well: after an
	// injected stall the runtime may not yet have run the timer that
	// closes ctx.Done(), and the scan could otherwise finish "in time".
	checkCtx := i&StrideMask == 0
	if hook != nil {
		if err := hook.OnItem(i); err != nil {
			return Canceled(err)
		}
		if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			return Canceled(context.DeadlineExceeded)
		}
		checkCtx = true
	}
	if done := ctx.Done(); done != nil && checkCtx {
		select {
		case <-done:
			return Canceled(ctx.Err())
		default:
		}
	}
	return nil
}
