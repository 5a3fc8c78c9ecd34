package searchtest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// ShardCounts is the shard grid the bit-exactness harness compares
// against the S=1 reference: a power of two, an odd divisor-unfriendly
// count, and a prime larger than most small-k heaps.
var ShardCounts = []int{2, 3, 7}

// CheckSharded is the sharded bit-exactness harness: for every instance
// in the grid it builds the searcher with S=1 and with each S in
// ShardCounts and asserts the results are IDENTICAL — same IDs, same
// scores (bitwise, not tolerance), same tie order — after
// topk.SortResults canonicalization. The grid deliberately includes
// tie-heavy degenerate inputs (duplicated rows, zero queries, k ≥ n)
// where any scan-order dependence in tie retention would surface.
//
// build must return a searcher over its own index built from items with
// the given shard count; shards == 1 must be supported and is the
// reference.
func CheckSharded(t *testing.T, build Builder, label string) {
	t.Helper()
	rng := rand.New(rand.NewSource(20260806))
	cases := []struct{ n, d, k int }{
		{1, 3, 1}, // fewer rows than shards
		{5, 3, 2}, // shard count close to n
		{60, 8, 5},
		{200, 16, 10},
		{331, 24, 7},  // prime n: uneven shard sizes everywhere
		{64, 12, 64},  // k == n
		{64, 12, 100}, // k > n
	}
	for _, c := range cases {
		items, _ := RandomInstance(rng, c.n, c.d)
		checkShardedInstance(t, build, items, c.k, 5, rng, fmt.Sprintf("%s/n=%d,d=%d,k=%d", label, c.n, c.d, c.k))
	}

	// Tie-heavy instance: blocks of duplicated rows force exact score
	// ties that straddle shard boundaries.
	checkShardedInstance(t, build, duplicatedRows(), 25, 5, rng, label+"/duplicates")

	// Zero query: every score ties at 0 (or the scan degenerates), the
	// harshest tie-order test of all.
	zitems, _ := RandomInstance(rng, 70, 5)
	zq := make([]float64, 5)
	checkShardedQueries(t, build, zitems, [][]float64{zq}, 12, label+"/zero-query")
}

// duplicatedRows is 10 copies of each of 9 distinct rows, interleaved.
func duplicatedRows() *vec.Matrix {
	dup := vec.NewMatrix(90, 6)
	for i := 0; i < dup.Rows; i++ {
		r := rand.New(rand.NewSource(int64(i % 9)))
		for j := range dup.Row(i) {
			dup.Row(i)[j] = r.NormFloat64()
		}
	}
	return dup
}

func checkShardedInstance(t *testing.T, build Builder, items *vec.Matrix, k, trials int, rng *rand.Rand, label string) {
	t.Helper()
	queries := make([][]float64, trials)
	for i := range queries {
		q := make([]float64, items.Cols)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries[i] = q
	}
	checkShardedQueries(t, build, items, queries, k, label)
}

func checkShardedQueries(t *testing.T, build Builder, items *vec.Matrix, queries [][]float64, k int, label string) {
	t.Helper()
	ref := build(items, 1)
	sharded := make(map[int]search.Searcher, len(ShardCounts))
	for _, s := range ShardCounts {
		sharded[s] = build(items, s)
	}
	for qi, q := range queries {
		want, err := ref.SearchContext(context.Background(), q, k)
		if err != nil {
			t.Fatalf("%s: S=1 query %d: %v", label, qi, err)
		}
		topk.SortResults(want)
		for _, s := range ShardCounts {
			got, err := sharded[s].SearchContext(context.Background(), q, k)
			if err != nil {
				t.Fatalf("%s: S=%d query %d: %v", label, s, qi, err)
			}
			topk.SortResults(got)
			// Struct equality: IDs AND bitwise-identical scores AND
			// identical tie order. Any float drift or scan-order
			// dependence fails here.
			checkSameAnswer(t, got, want, fmt.Sprintf("%s: S=%d query %d", label, s, qi))
		}
	}
}

// CheckShardedCancellation runs the full cancellation property suite
// (searchtest.CheckCancellation) against the sharded searcher for every
// S in ShardCounts: cancelled sharded scans must return
// ErrDeadline-flagged partials whose scores are all true inner
// products, and faults that never fire must leave results identical to
// the uncancelled baseline.
func CheckShardedCancellation(t *testing.T, build Builder, label string) {
	t.Helper()
	for _, s := range ShardCounts {
		s := s
		CheckCancellation(t, func(items *vec.Matrix) search.Searcher {
			return build(items, s)
		}, fmt.Sprintf("%s/S=%d", label, s))
	}
}

// CheckShardedCancellationApprox is CheckShardedCancellation for
// approximate searchers (PCA-Tree): the uncancelled baseline is not
// compared against Naive but every other cancellation invariant holds.
func CheckShardedCancellationApprox(t *testing.T, build Builder, label string) {
	t.Helper()
	for _, s := range ShardCounts {
		s := s
		CheckCancellationApprox(t, func(items *vec.Matrix) search.Searcher {
			return build(items, s)
		}, fmt.Sprintf("%s/S=%d", label, s))
	}
}
