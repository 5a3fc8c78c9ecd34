package search

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"fexipro/internal/faults"
	"fexipro/internal/vec"
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

// TestBatchChunksByNorm: Batch hands out every row exactly once, in
// decreasing-norm order (equal norms by row) across contiguous chunks,
// one chunk on the calling goroutine when workers ≤ 1, and returns the
// error of the first failing chunk in chunk order whatever the schedule.
func TestBatchChunksByNorm(t *testing.T) {
	queries := vec.FromRows([][]float64{{1}, {3}, {0}, {3}, {2}, {5}, {-4}})
	wantOrder := []int{5, 6, 1, 3, 4, 0, 2}
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 20} {
		var mu sync.Mutex
		var chunks [][]int
		if err := Batch(queries, workers, func(rows []int) error {
			mu.Lock()
			defer mu.Unlock()
			chunks = append(chunks, rows)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := min(max(workers, 1), 7); len(chunks) > want {
			t.Fatalf("workers=%d: %d chunks", workers, len(chunks))
		}
		slices.SortFunc(chunks, func(a, b []int) int { return slices.Index(wantOrder, a[0]) - slices.Index(wantOrder, b[0]) })
		if got := slices.Concat(chunks...); !slices.Equal(got, wantOrder) {
			t.Fatalf("workers=%d: rows %v, want %v", workers, got, wantOrder)
		}
	}
	errAt := func(row int) error { return fmt.Errorf("row %d", row) }
	err := Batch(queries, 7, func(rows []int) error {
		if rows[0] == 3 || rows[0] == 0 {
			return errAt(rows[0])
		}
		return nil
	})
	if err == nil || err.Error() != "row 3" {
		t.Fatalf("first error by chunk order = %v, want row 3", err)
	}
	if err := Batch(vec.NewMatrix(0, 1), 4, func(rows []int) error {
		if len(rows) != 0 {
			t.Fatalf("empty batch handed rows %v", rows)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
