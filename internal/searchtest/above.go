package searchtest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fexipro/internal/scan"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// aboveSearcher is a searcher that also answers the above-t task: the
// engine over any kernel, which is what a Builder returns.
type aboveSearcher interface {
	search.Searcher
	SearchAboveContext(ctx context.Context, q []float64, t float64) ([]topk.Result, error)
}

// CheckAbove is the above-t harness, at S = 1 and every S in ShardCounts.
// The answer at t = -Inf — everything, under the searcher's own scores —
// must be the naive ranking under CheckTopK's score rule and the same
// bits at every S. The answer at any other t must then be exactly its
// prefix scoring at least t: at +Inf and NaN nothing; at a score the
// searcher itself returned, that item and every duplicate of it (a
// product equal to t survives every strict prune); and in a gap of the
// naive scores, where no summation order is knife-edge, what
// scan.Naive.SearchAboveContext returns — the oracle, which shares no
// collector with the code under test. Instances: random rows, duplicated
// rows, the zero query. A scan cancelled midway returns a sorted,
// true-scored partial with ErrDeadline (CheckAboveCancellation).
func CheckAbove(t *testing.T, build Builder, label string) {
	t.Helper()
	rng := rand.New(rand.NewSource(20261005))
	ctx := context.Background()
	random, rq := RandomInstance(rng, 331, 24)
	one, oq := RandomInstance(rng, 1, 3)
	for _, c := range []struct {
		name  string
		items *vec.Matrix
		q     []float64
	}{
		{"random", random, rq},
		{"one-row", one, oq},
		{"duplicates", duplicatedRows(), []float64{0.7, -1.1, 0.4, 0.9, -0.3, 1.3}},
		{"zero-query", random, make([]float64, 24)},
	} {
		naive := scan.NewNaive(c.items)
		ranked := naive.Search(c.q, c.items.Rows)
		var all []topk.Result // the S = 1 answer at -Inf
		for _, s := range append([]int{1}, ShardCounts...) {
			what := fmt.Sprintf("%s/%s S=%d", label, c.name, s)
			e := build(c.items, s).(aboveSearcher)
			above := func(thr float64) []topk.Result {
				got, err := e.SearchAboveContext(ctx, c.q, thr)
				if err != nil {
					t.Fatalf("%s t=%v: %v", what, thr, err)
				}
				return got
			}
			if s == 1 {
				all = above(math.Inf(-1))
				CheckTopK(t, c.items, c.q, len(ranked), all, what)
			}
			thresholds := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0}
			for _, r := range []int{0, 9, 10, len(all) / 2, len(all) - 1} {
				if r < len(all) {
					thresholds = append(thresholds, all[r].Score)
				}
				// A gap of the naive scores from rank r on, well beyond float noise.
				for ; r >= 1 && r < len(ranked); r++ {
					if hi, lo := ranked[r-1].Score, ranked[r].Score; hi-lo > 1e3*Tolerance*(1+math.Abs(hi)+math.Abs(lo)) {
						thr := lo + (hi-lo)/2
						thresholds = append(thresholds, thr)
						want, _ := naive.SearchAboveContext(ctx, c.q, thr)
						CheckTopK(t, c.items, c.q, len(want), above(thr), fmt.Sprintf("%s t=%v", what, thr))
						break
					}
				}
			}
			for _, thr := range thresholds {
				n := 0
				for n < len(all) && all[n].Score >= thr {
					n++
				}
				checkSameAnswer(t, above(thr), all[:n], fmt.Sprintf("%s t=%v", what, thr))
			}
		}
	}
	for _, s := range append([]int{1}, ShardCounts...) {
		CheckAboveCancellation(t, func(items *vec.Matrix) search.Searcher { return build(items, s) }, fmt.Sprintf("%s/above S=%d", label, s))
	}
}
