// Package searchtest provides the shared harness that validates every
// retrieval method against the Naive ground truth: same top-k scores (to
// float tolerance) and same identities wherever scores are separated.
package searchtest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/scan"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Tolerance is the relative score tolerance used when comparing a method
// against Naive. The FEXIPRO transformations are lossless in real
// arithmetic; float64 evaluation leaves ~1e-12 relative noise.
const Tolerance = 1e-7

// RandomInstance generates an n×d item matrix and a query with entries
// from a mix of Gaussians (including negative values and norm skew, the
// regime the paper targets).
func RandomInstance(rng *rand.Rand, n, d int) (*vec.Matrix, []float64) {
	items := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		scale := math.Exp(0.6 * rng.NormFloat64())
		row := items.Row(i)
		for j := range row {
			row[j] = scale * rng.NormFloat64() * math.Exp(-0.05*float64(j))
		}
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	return items, q
}

// CheckTopK fails the test unless got matches the exact top-k of q
// against items. Scores must agree within Tolerance; IDs must agree
// except inside groups of near-tied scores.
func CheckTopK(t *testing.T, items *vec.Matrix, q []float64, k int, got []topk.Result, label string) {
	t.Helper()
	want := scan.NewNaive(items).Search(q, k)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !scoreClose(got[i].Score, want[i].Score) {
			t.Fatalf("%s: rank %d score %v, want %v (got=%v want=%v)",
				label, i, got[i].Score, want[i].Score, got, want)
		}
		// Verify the returned ID really achieves the claimed score.
		actual := vec.Dot(q, items.Row(got[i].ID))
		if !scoreClose(actual, want[i].Score) {
			t.Fatalf("%s: rank %d returned item %d with true score %v, want %v",
				label, i, got[i].ID, actual, want[i].Score)
		}
	}
}

func scoreClose(a, b float64) bool {
	return math.Abs(a-b) <= Tolerance*(1+math.Abs(a)+math.Abs(b))
}

// CheckSearcher runs a grid of (n, d, k) instances through the searcher
// factory and validates every answer against Naive.
func CheckSearcher(t *testing.T, build func(items *vec.Matrix) search.Searcher, label string) {
	t.Helper()
	rng := rand.New(rand.NewSource(12345))
	cases := []struct{ n, d, k int }{
		{1, 1, 1},
		{1, 5, 3},
		{10, 1, 2},
		{50, 3, 5},
		{100, 8, 1},
		{100, 8, 10},
		{300, 16, 7},
		{500, 32, 10},
		{200, 50, 5},
		{64, 50, 64},  // k == n
		{64, 50, 100}, // k > n
	}
	for _, c := range cases {
		items, _ := RandomInstance(rng, c.n, c.d)
		s := build(items)
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, c.d)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			got := s.Search(q, c.k)
			CheckTopK(t, items, q, c.k, got, label)
		}
	}
}

// Counted answers q's top-k on s under a fresh counter sink
// (obs.WithStats) and returns the results with the query's counters.
func Counted(s search.Searcher, q []float64, k int) ([]topk.Result, search.Stats) {
	var st search.Stats
	res, _ := s.SearchContext(obs.WithStats(context.Background(), &st), q, k)
	return res, st
}

// Builder makes the searcher under test over its own index of items,
// partitioned into the given number of shards: an engine over a kernel.
type Builder func(items *vec.Matrix, shards int) search.Searcher

// Sequential is the builder at one shard, in the shape the unsharded
// harnesses (CheckSearcher, CheckCancellation, …) take.
func (b Builder) Sequential(items *vec.Matrix) search.Searcher { return b(items, 1) }

// CheckCancellation is the cancellation property suite shared by every
// searcher. A deterministic fault — a scan under faults.Hook.Context that
// cancels at one of the query's polls — NEVER yields a result set flagged
// exact (nil error); every partial score is a true inner product of its
// returned ID; partial results stay sorted; a cancelled query adds the
// work it did to the sink its context carries; a fault that never fires
// leaves the results identical to the uncancelled baseline; and an
// already-cancelled context returns promptly with ErrDeadline. The suite
// fails unless some trial was cancelled after the scan had offered rows,
// so that what came back was a non-empty partial. It runs CancelInstance's
// query and the zero query, which every row ties and which LEMP and SS-L
// answer in a loop of their own.
func CheckCancellation(t *testing.T, build func(items *vec.Matrix) search.Searcher, label string) {
	t.Helper()
	checkCancellation(t, build, label, true)
}

// CheckCancellationApprox is CheckCancellation for approximate searchers
// (PCA-Tree): the uncancelled baseline is not compared against Naive,
// but every other invariant — never-exact-when-cut-short, true scores,
// sortedness, unfired-fault determinism, prompt pre-cancelled return, a
// non-empty partial — still holds, for CancelInstance's query only.
func CheckCancellationApprox(t *testing.T, build func(items *vec.Matrix) search.Searcher, label string) {
	t.Helper()
	checkCancellation(t, build, label, false)
}

func checkCancellation(t *testing.T, build func(items *vec.Matrix) search.Searcher, label string, exact bool) {
	t.Helper()
	const k = 10
	checkCancelled(t, build, label, exact, func(s search.Searcher, ctx context.Context, q []float64) ([]topk.Result, error) {
		return s.SearchContext(ctx, q, k)
	}, func(items *vec.Matrix, q []float64, base []topk.Result, label string) {
		if exact {
			CheckTopK(t, items, q, k, base, label+"/uncancelled")
		}
	})
}

// CheckAboveCancellation is the cancellation suite for the above-t task:
// SearchAboveContext at a t about 2 % of CancelInstance's products reach,
// under CheckCancellation's invariants, with the uncancelled answer held
// to Naive's.
func CheckAboveCancellation(t *testing.T, build func(items *vec.Matrix) search.Searcher, label string) {
	t.Helper()
	const thr = 8
	checkCancelled(t, build, label, false, func(s search.Searcher, ctx context.Context, q []float64) ([]topk.Result, error) {
		return s.(aboveSearcher).SearchAboveContext(ctx, q, thr)
	}, func(items *vec.Matrix, q []float64, base []topk.Result, label string) {
		CheckTopK(t, items, q, len(scan.NewNaive(items).SearchAbove(q, thr)), base, label+"/uncancelled")
	})
}

// CancelInstance returns the cancellation suite's one shared, read-only
// instance: 30 000 × 16 items and a query, all entries standard normal. A
// fault lands after rows were offered only in a scan past its first poll
// stride; with flat norms no index prunes much, and every sorted scan and
// both exact trees get that far at one shard.
var CancelInstance = sync.OnceValues(func() (*vec.Matrix, []float64) {
	rng := rand.New(rand.NewSource(20240611))
	m := vec.NewMatrix(30001, 16)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m.Slice(0, 30000), m.Row(30000)
})

// checkCancelled is the cancellation suite for any one-query entry point
// over one build of CancelInstance: query runs it on s, checkBase judges
// the uncancelled answer. It runs the instance's query and, when zero is
// set, the zero query.
func checkCancelled(t *testing.T, build func(items *vec.Matrix) search.Searcher, label string, zero bool,
	query func(s search.Searcher, ctx context.Context, q []float64) ([]topk.Result, error),
	checkBase func(items *vec.Matrix, q []float64, base []topk.Result, label string)) {
	t.Helper()
	items, q := CancelInstance()
	s := build(items)
	checkCancelledQuery(t, s, items, q, label, query, checkBase)
	if zero {
		checkCancelledQuery(t, s, items, make([]float64, len(q)), label+"/zero-query", query, checkBase)
	}
}

// checkCancelledQuery is checkCancelled for one query q. The cancel points
// spread evenly from the first poll an unfaulted run makes to one past its
// last.
func checkCancelledQuery(t *testing.T, s search.Searcher, items *vec.Matrix, q []float64, label string,
	query func(s search.Searcher, ctx context.Context, q []float64) ([]topk.Result, error),
	checkBase func(items *vec.Matrix, q []float64, base []topk.Result, label string)) {
	t.Helper()
	const seed, trials = 20240611, 25

	base, err := query(s, context.Background(), q)
	if err != nil {
		t.Fatalf("%s: uncancelled query error: %v", label, err)
	}
	checkBase(items, q, base, label)
	probe := faults.NewRegistry(seed).Enable(faults.SiteScan, faults.Plan{})
	res, err := query(s, probe.Context(context.Background()), q)
	if err != nil {
		t.Fatalf("%s: query under a fault-free hook: %v", label, err)
	}
	checkSameAnswer(t, res, base, label+": fault-free hook")
	polls := int(probe.Counts().Items)

	midScan := 0
	for trial := 0; trial < trials; trial++ {
		cancelAt := 1 + trial*(polls+1)/trials
		hook := faults.NewRegistry(seed+int64(trial)).Enable(faults.SiteScan, faults.Plan{CancelAtItem: cancelAt})
		var st search.Stats
		res, err := query(s, obs.WithStats(hook.Context(context.Background()), &st), q)

		if hook.Counts().Cancels > 0 {
			// The scan was cut short: flagging these results exact (nil
			// error) would be a correctness lie.
			if err == nil {
				t.Fatalf("%s: cancel at poll %d fired but the query returned nil error", label, cancelAt)
			}
			if !errors.Is(err, search.ErrDeadline) {
				t.Fatalf("%s: cancellation error %v does not wrap search.ErrDeadline", label, err)
			}
			if len(res) > 0 {
				midScan++
				if st == (search.Stats{}) || st.Scanned > items.Rows {
					t.Fatalf("%s: cancel at poll %d put %+v in the sink; want the work done, Scanned ≤ %d", label, cancelAt, st, items.Rows)
				}
			}
		} else {
			// Fault never fired: the scan completed and must be exact,
			// identical to the baseline run.
			if err != nil {
				t.Fatalf("%s: unfired cancel at poll %d returned error %v", label, cancelAt, err)
			}
			checkSameAnswer(t, res, base, fmt.Sprintf("%s: unfired cancel at poll %d", label, cancelAt))
		}
		// Partial or not: scores are true inner products, sorted descending.
		for i, r := range res {
			actual := vec.Dot(q, items.Row(r.ID))
			if !scoreClose(actual, r.Score) {
				t.Fatalf("%s: cancel at poll %d returned item %d with score %v, true product %v",
					label, cancelAt, r.ID, r.Score, actual)
			}
			if i > 0 && res[i-1].Score < r.Score {
				t.Fatalf("%s: cancel at poll %d results unsorted at rank %d", label, cancelAt, i)
			}
		}
	}
	if midScan == 0 {
		t.Fatalf("%s: no trial cancelled the scan after it had offered rows (an unfaulted query polls %d times)", label, polls)
	}

	// An already-cancelled context returns promptly with ErrDeadline.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := query(s, ctx, q); !errors.Is(err, search.ErrDeadline) {
		t.Fatalf("%s: pre-cancelled context error = %v, want ErrDeadline", label, err)
	}
}

// checkSameAnswer is struct equality, list against list: IDs, score bits,
// order.
func checkSameAnswer(t *testing.T, got, want []topk.Result, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got=%v\nwant=%v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: got %+v, want %+v\n got=%v\nwant=%v", what, i, got[i], want[i], got, want)
		}
	}
}

// CheckSearcherEdgeCases exercises degenerate inputs: zero queries, zero
// items, duplicated vectors, negative-only data.
func CheckSearcherEdgeCases(t *testing.T, build func(items *vec.Matrix) search.Searcher, label string) {
	t.Helper()
	rng := rand.New(rand.NewSource(999))

	// Duplicated rows: scores must still be the duplicated maximum.
	row := []float64{0.5, -1.5, 2.0}
	items := vec.FromRows([][]float64{row, row, row, {0, 0, 0}, {-5, -5, -5}})
	s := build(items)
	q := []float64{1, 0.2, 0.1}
	CheckTopK(t, items, q, 3, s.Search(q, 3), label+"/duplicates")

	// Zero query vector.
	items2, _ := RandomInstance(rng, 40, 6)
	s2 := build(items2)
	zq := make([]float64, 6)
	got := s2.Search(zq, 4)
	if len(got) != 4 {
		t.Fatalf("%s: zero query returned %d results", label, len(got))
	}
	for _, r := range got {
		if r.Score != 0 {
			t.Fatalf("%s: zero query score %v != 0", label, r.Score)
		}
	}

	// All-negative items.
	neg := vec.NewMatrix(30, 4)
	for i := range neg.Data {
		neg.Data[i] = -rng.Float64() - 0.1
	}
	s3 := build(neg)
	q3 := []float64{1, 2, 3, 4}
	CheckTopK(t, neg, q3, 5, s3.Search(q3, 5), label+"/negative")

	// Items containing a zero vector.
	withZero := vec.NewMatrix(10, 3)
	for i := 1; i < 10; i++ {
		for j := 0; j < 3; j++ {
			withZero.Set(i, j, rng.NormFloat64())
		}
	}
	s4 := build(withZero)
	q4 := []float64{0.3, -0.7, 1.1}
	CheckTopK(t, withZero, q4, 10, s4.Search(q4, 10), label+"/zero-item")
}
