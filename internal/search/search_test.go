package search

import (
	"context"
	"errors"
	"strings"
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

// TestPollPassedDeadline: under a fault hook's context
// (faults.Hook.Context) Poll treats a deadline already passed on the
// clock as expired even though Done is still open, and says so; the
// production poll of the bare context keeps trusting the context alone.
func TestPollPassedDeadline(t *testing.T) {
	ctx := lateTimerCtx{context.Background()}
	hook := faults.NewRegistry(1).Enable(faults.SiteScan, faults.Plan{})
	if err := Poll(hook.Context(ctx)); !errors.Is(err, ErrDeadline) || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("Poll under a hook with a passed deadline = %v, want ErrDeadline for the deadline", err)
	}
	if err := Poll(ctx); err != nil {
		t.Fatalf("Poll of the bare context = %v, want nil while Done is open", err)
	}
}
