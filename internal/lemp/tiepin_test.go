package lemp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// TestLengthStopsKeepTies pins the strict comparison of the two length
// stops, the bucket-level one (‖q‖·maxnorm(bucket) < t) and the in-bucket
// one (‖q‖·‖p‖ < t). Row 1 = (1, √3, 0, 0) has the larger norm, so it is
// scanned first and sets t to its score, exactly 1; row 0 = e₁ ties it
// with its length bound exactly on t. Only a strict stop scans row 0, and
// the canonical order then keeps the lower ID; its cosine tests sit on
// θ = 1, so they must keep it as well. Buckets of one row reach
// row 0 through the bucket-level stop, buckets of 16 through the
// in-bucket one, under LEMP-LI and SS-L alike.
func TestLengthStopsKeepTies(t *testing.T) {
	const n, d = 18, 4
	items := vec.NewMatrix(n, d)
	items.Row(0)[0] = 1
	copy(items.Row(1), []float64{1, math.Sqrt(3), 0, 0})
	for i := 2; i < n; i++ { // score 0, shorter than row 0
		items.Row(i)[1+i%3] = 0.5 - 0.01*float64(i)
	}
	q := []float64{1, 0, 0, 0}
	for _, size := range []int{1, 16} {
		for _, ix := range []struct {
			name string
			idx  *Index
		}{
			{"LEMP-LI", New(items, Options{BucketSize: size})},
			{"SS-L", newSSL(items, nil, size)},
		} {
			got := engine.New(NewKernel(ix.idx, 1), 1).Search(q, 1)
			if len(got) != 1 || got[0] != (topk.Result{ID: 0, Score: 1}) {
				t.Errorf("%s, buckets of %d: top-1 = %v, want ID 0 at score 1", ix.name, size, got)
			}
		}
	}
}

// TestCoordinateTestsKeepTies pins the strict comparison of the two
// cosine tests inside a bucket: SS-L's focus-coordinate test and the
// incremental test at w. For rows of seeded queries it steps float64
// thresholds t until θ = t/(‖q‖·‖p‖) lands exactly on the test's bound,
// then requires the row kept there and pruned at the first t past the
// tie. SS-L runs at w = d, so the focus test is its only cosine test;
// LEMP-LI has no focus test. Each row is scanned as a bucket of its own
// into an above-t collector, so nothing but the test under study decides.
func TestCoordinateTestsKeepTies(t *testing.T) {
	const n, d = 64, 12
	rng := rand.New(rand.NewSource(43))
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	focus := newSSL(items, nil, 16)
	focus.setW(d)
	stages := []struct {
		name  string
		idx   *Index
		bound func(qs *lempQuery, b *bucket, i int) float64
	}{
		{"focus", focus, func(qs *lempQuery, b *bucket, i int) float64 {
			pf := b.unit.Row(i)[qs.focus]
			return qs.qf*pf + qs.qRest*math.Sqrt(math.Max(0, 1-pf*pf))
		}},
		{"incremental", New(items, Options{BucketSize: 16, W: 3}), func(qs *lempQuery, b *bucket, i int) float64 {
			return vec.DotRange(qs.qUnit, b.unit.Row(i), 0, b.w) + vec.NormRange(qs.qUnit, b.w, d)*b.tailNorms[i]
		}},
	}
	for _, sg := range stages {
		ties := 0
		for qi := 0; qi < 20 && ties < 20; qi++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = 8 * rng.NormFloat64()
			}
			qs := sg.idx.prepareQuery(q)
			for bi := range sg.idx.buckets {
				b := &sg.idx.buckets[bi]
				for i := 0; i < b.unit.Rows && ties < 20; i += 5 {
					bound := sg.bound(qs, b, i)
					lenBound := qs.qNorm * b.norms[i]
					theta := func(t float64) float64 { return t / lenBound }
					tie, ok := tieThreshold(bound, bound*lenBound, theta)
					if !ok {
						continue
					}
					past := tie
					for theta(past) <= bound {
						past = math.Nextafter(past, math.Inf(1))
					}
					at, after := scanRow(sg.idx, qs, b, i, tie), scanRow(sg.idx, qs, b, i, past)
					if at.PrunedByLength+after.PrunedByLength != 0 {
						continue
					}
					if at.PrunedByIncremental != 0 || after.PrunedByIncremental != 1 {
						t.Fatalf("%s: bucket %d row %d: bound %v on θ at t = %v: pruned %d there, %d past it; want 0 and 1",
							sg.name, bi, i, bound, tie, at.PrunedByIncremental, after.PrunedByIncremental)
					}
					ties++
				}
			}
		}
		if ties < 20 {
			t.Fatalf("%s: only %d rows with an exact tie", sg.name, ties)
		}
	}
}

// scanRow scans row i of b as a bucket of its own against the fixed
// threshold t and returns its counters.
func scanRow(idx *Index, qs *lempQuery, b *bucket, i int, t float64) search.Stats {
	one := bucket{
		unit:      &vec.Matrix{Rows: 1, Cols: idx.d, Data: b.unit.Row(i)},
		norms:     b.norms[i : i+1],
		ids:       b.ids[i : i+1],
		w:         b.w,
		tailNorms: b.tailNorms[i : i+1],
		maxNorm:   b.norms[i],
	}
	var st search.Stats
	pos := 0
	// An uncancellable scan cannot fail.
	_ = idx.scanBucket(context.Background(), nil, &pos, &one, qs, topk.NewAbove(t), nil, &st)
	return st
}

// tieThreshold returns a threshold t at which cut(t) equals bound
// exactly, stepping from guess through neighbouring float64s, or false
// when cut steps over bound. cut must be non-decreasing in t.
func tieThreshold(bound, guess float64, cut func(t float64) float64) (float64, bool) {
	dir := math.Inf(1)
	if cut(guess) > bound {
		dir = math.Inf(-1)
	}
	for t, n := guess, 0; n < 1<<16; t, n = math.Nextafter(t, dir), n+1 {
		switch c := cut(t); {
		case c == bound:
			return t, true
		case (c > bound) == (dir > 0):
			return 0, false
		}
	}
	return 0, false
}
