package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/vec"
)

// TestBatchChunksByNorm: Batch hands out every row exactly once, in
// decreasing-norm order (equal norms by row) across contiguous chunks,
// one chunk on the calling goroutine when workers ≤ 1, adds what the
// chunks count to the caller's sink, and returns the error of the first
// failing chunk in chunk order whatever the schedule.
func TestBatchChunksByNorm(t *testing.T) {
	queries := vec.FromRows([][]float64{{1}, {3}, {0}, {3}, {2}, {5}, {-4}})
	wantOrder := []int{5, 6, 1, 3, 4, 0, 2}
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 20} {
		var mu sync.Mutex
		var chunks [][]int
		var sink search.Stats
		if err := Batch(obs.WithStats(context.Background(), &sink), queries, workers, func(ctx context.Context, rows []int) error {
			obs.QueryFrom(ctx).AddStats(search.Stats{Scanned: len(rows)})
			mu.Lock()
			defer mu.Unlock()
			chunks = append(chunks, rows)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sink.Scanned != len(wantOrder) {
			t.Fatalf("workers=%d: the chunks' sinks add up to %d rows, want %d", workers, sink.Scanned, len(wantOrder))
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
	err := Batch(context.Background(), queries, 7, func(_ context.Context, rows []int) error {
		if rows[0] == 3 || rows[0] == 0 {
			return errAt(rows[0])
		}
		return nil
	})
	if err == nil || err.Error() != "row 3" {
		t.Fatalf("first error by chunk order = %v, want row 3", err)
	}
	if err := Batch(context.Background(), vec.NewMatrix(0, 1), 4, func(_ context.Context, rows []int) error {
		if len(rows) != 0 {
			t.Fatalf("empty batch handed rows %v", rows)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
