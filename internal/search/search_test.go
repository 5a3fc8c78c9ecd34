package search

import (
	"context"
	"errors"
	"testing"
	"time"

	"fexipro/internal/faults"
)

func TestStatsAdd(t *testing.T) {
	a := Stats{Scanned: 1, PrunedByLength: 2, PrunedByIntHead: 3, PrunedByIntFull: 4,
		PrunedByIncremental: 5, PrunedByMonotone: 6, FullProducts: 7, NodesVisited: 8}
	b := a
	a.Add(b)
	want := Stats{Scanned: 2, PrunedByLength: 4, PrunedByIntHead: 6, PrunedByIntFull: 8,
		PrunedByIncremental: 10, PrunedByMonotone: 12, FullProducts: 14, NodesVisited: 16}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

func TestStatsAddZero(t *testing.T) {
	a := Stats{Scanned: 5}
	a.Add(Stats{})
	if a.Scanned != 5 {
		t.Fatalf("Add zero changed stats: %+v", a)
	}
}

// lateTimerCtx is a context whose deadline has passed on the clock
// while its Done channel is still open — the state a scan observes
// between a stall and the runtime running the context's timer.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }
func (lateTimerCtx) Done() <-chan struct{}       { return make(chan struct{}) }

// TestPollPassedDeadline: under a fault hook (the per-item test path)
// Poll treats a deadline already passed on the clock as expired even
// though Done is still open; the hook-less production poll keeps
// trusting Done alone.
func TestPollPassedDeadline(t *testing.T) {
	ctx := lateTimerCtx{context.Background()}
	hook := faults.NewRegistry(1).Enable(faults.SiteScan, faults.Plan{})
	if err := Poll(ctx, hook, 5); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Poll with hook and passed deadline = %v, want ErrDeadline", err)
	}
	if err := Poll(ctx, nil, 0); err != nil {
		t.Fatalf("hook-less Poll = %v, want nil while Done is open", err)
	}
}
