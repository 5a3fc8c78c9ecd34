package scan_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/scan"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func TestNaiveCancellation(t *testing.T) {
	searchtest.CheckCancellation(t, func(items *vec.Matrix) search.Searcher {
		return scan.NewNaive(items)
	}, "Naive")
}

// TestNaiveAboveCancellation holds the above-t oracle, Naive's own
// threshold loop, to the cancellation contract the engine's above-t runs
// are held to.
func TestNaiveAboveCancellation(t *testing.T) {
	searchtest.CheckAboveCancellation(t, func(items *vec.Matrix) search.Searcher {
		return scan.NewNaive(items)
	}, "Naive/above")
}

func TestSSCancellation(t *testing.T) {
	searchtest.CheckCancellation(t, func(items *vec.Matrix) search.Searcher {
		return newSS(items, 0)
	}, "SS")
}

// TestDeadlineAcceptance: a query with a 1 ms deadline against a
// 100k-item index comes back well under 10 ms with an (empty) partial and
// an ErrDeadline-wrapping error — even when an injected fault makes the scan
// pathologically slow. The injected 2 ms stall at the first poll
// guarantees the deadline has expired by the end of that poll, so the
// scan gives up before its first row.
func TestDeadlineAcceptance(t *testing.T) {
	const n, d = 100_000, 16
	rng := rand.New(rand.NewSource(7))
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	s := scan.NewNaive(items)
	// Sleep 2 ms on every poll: the 1 ms deadline is stale before the
	// first poll completes, and that poll ends the scan.
	hook := faults.NewRegistry(7).Enable(faults.SiteScan, faults.Plan{ItemLatency: 2 * time.Millisecond})

	// Wall-clock assertions flake on loaded machines; accept the fastest
	// of a few attempts but require correct semantics on every attempt.
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 5; attempt++ {
		var st search.Stats
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		start := time.Now()
		res, err := s.SearchContext(obs.WithStats(hook.Context(ctx), &st), q, 10)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, search.ErrDeadline) {
			t.Fatalf("attempt %d: err = %v, want ErrDeadline", attempt, err)
		}
		if len(res) != 0 || st.Scanned != 0 {
			t.Fatalf("attempt %d: %d results, %d rows scanned past a deadline stale at the first poll", attempt, len(res), st.Scanned)
		}
		if took < best {
			best = took
		}
	}
	if best >= 10*time.Millisecond {
		t.Fatalf("best-of-5 deadline return took %v, want < 10ms", best)
	}
}

// TestDeadlineUnexpiredIsExact is the control: the same index with no
// deadline pressure completes and returns a nil (exact) error.
func TestDeadlineUnexpiredIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items := vec.NewMatrix(5000, 8)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	q := make([]float64, 8)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	s := scan.NewNaive(items)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := s.SearchContext(ctx, q, 10)
	if err != nil {
		t.Fatalf("unexpired deadline returned error %v", err)
	}
	searchtest.CheckTopK(t, items, q, 10, res, "Naive/deadline-unexpired")
}
