package core

import (
	"math"
	"math/rand"
	"testing"

	"fexipro/internal/search"
	"fexipro/internal/vec"
)

// tieThreshold returns a threshold t at which cut(t) — the right-hand
// side of a prune test, t less its margin — equals bound exactly, stepping
// from guess through neighbouring float64s, or false when cut steps over
// bound. cut must be non-decreasing in t.
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

// marginGuess returns the x at which x − slack·(|x|+1) = b in real
// arithmetic: where tieThreshold starts.
func marginGuess(b, slack float64) float64 {
	if b+slack >= 0 {
		return (b + slack) / (1 - slack)
	}
	return (b + slack) / (1 + slack)
}

// aboveTie returns the first threshold after t whose cut exceeds bound.
func aboveTie(bound, t float64, cut func(t float64) float64) float64 {
	for cut(t) <= bound {
		t = math.Nextafter(t, math.Inf(1))
	}
	return t
}

// TestPruneStagesKeepTies pins the strict comparison of the three stages
// whose ties the 1e-9 margin would otherwise hide from every test: the
// integer full bound (afterHead), the monotonicity reduction
// (coordinateScan) and the SRI ablation's integer tail test. For rows of
// seeded queries it finds the threshold t at which the stage's bound lands
// exactly on t − margin, at the default PruneSlack and at −1 (no margin),
// and requires the stage to keep the row there and to prune it at the next
// threshold past the tie. The incremental bound is passed as +∞, and the
// integer stages run on indexes without R, so only the stage under test
// can prune.
func TestPruneStagesKeepTies(t *testing.T) {
	const n, d = 300, 12
	for _, slack := range []float64{0, -1} {
		rng := rand.New(rand.NewSource(41))
		items := normalMatrix(rng, n, d)
		opts := Options{SVD: true, Int: true, Reduction: true, PruneSlack: slack}
		idx, err := NewIndex(items, opts)
		if err != nil {
			t.Fatal(err)
		}
		// R's far tighter bound would prune every row tied on an integer one.
		opts.Reduction = false
		si, err := NewIndex(items, opts)
		if err != nil {
			t.Fatal(err)
		}
		sri, err := NewAblationIndex(items, opts, Ablation{ReductionFirst: true})
		if err != nil {
			t.Fatal(err)
		}
		ps := idx.opts.PruneSlack
		cut := func(t float64) float64 { return t - pruneMargin(ps, t) }
		stages := []struct {
			name   string
			idx    *Index
			pruned func(st search.Stats) int
			// bound returns row i's bound, the stage's cut and a guess
			// near the tie; prune runs the stage at t.
			bound func(qs *queryState, i int) (b float64, cut func(float64) float64, guess float64)
			prune func(qs *queryState, i int, t float64, st *search.Stats)
		}{
			{"int-full", si, func(st search.Stats) int { return st.PrunedByIntFull },
				func(qs *queryState, i int) (float64, func(float64) float64, float64) {
					hb := si.headBound(qs, i, qs.head.RowIU(i))
					b := hb.bHead + si.rowTailBound(qs, i)
					return b, cut, marginGuess(b, ps)
				},
				func(qs *queryState, i int, t float64, st *search.Stats) {
					hb := si.headBound(qs, i, qs.head.RowIU(i))
					hb.ub1 = math.Inf(1)
					si.afterHead(i, qs, t, pruneMargin(ps, t), hb, si.rowTailBound(qs, i), st)
				}},
			{"monotone", idx, func(st search.Stats) int { return st.PrunedByMonotone },
				func(qs *queryState, i int) (float64, func(float64) float64, float64) {
					rd, w := idx.red, idx.w
					v := vec.DotRange(qs.qbar, idx.bar.Row(i), 0, w)
					b := float64(2*v*qs.invBarNorm) + rd.headConstP[i] + qs.headConstQ + float64(qs.hhTailQ*rd.hhTail[i])
					cut := func(t float64) float64 {
						tPrime := float64(2*t*qs.invBarNorm) + qs.kq
						return tPrime - float64(ps*(math.Abs(tPrime)+1))
					}
					return b, cut, (marginGuess(b, ps) - qs.kq) / (2 * qs.invBarNorm)
				},
				func(qs *queryState, i int, t float64, st *search.Stats) {
					idx.coordinateScan(i, qs, t, pruneMargin(ps, t), math.Inf(1), st)
				}},
			{"sri-tail", sri, func(st search.Stats) int { return st.PrunedByIntFull },
				func(qs *queryState, i int) (float64, func(float64) float64, float64) {
					b := vec.DotRange(qs.qbar, sri.bar.Row(i), 0, sri.w) + sri.rowTailBound(qs, i)
					return b, cut, marginGuess(b, ps)
				},
				func(qs *queryState, i int, t float64, st *search.Stats) {
					sri.coordinateScan(i, qs, t, pruneMargin(ps, t), math.Inf(1), st)
				}},
		}
		for _, sg := range stages {
			qs := sg.idx.newQueryState()
			ties := 0
			for qi := 0; qi < 20 && ties < 20; qi++ {
				// Scaled up, so that 2/‖q̄‖ < 1 and the reduced threshold
				// takes every value near the tie.
				q := normalMatrix(rng, 1, d).Data
				for s := range q {
					q[s] *= 8
				}
				sg.idx.prepareQuery(q, qs)
				for i := 0; i < n && ties < 20; i += 7 {
					b, cut, guess := sg.bound(qs, i)
					tie, ok := tieThreshold(b, guess, cut)
					if !ok {
						continue
					}
					var st, past search.Stats
					sg.prune(qs, i, tie, &st)
					sg.prune(qs, i, aboveTie(b, tie, cut), &past)
					if st.PrunedByMonotone+st.PrunedByIntFull != sg.pruned(st) || past.PrunedByMonotone+past.PrunedByIntFull != sg.pruned(past) {
						continue // another stage decided the row first
					}
					if sg.pruned(st) != 0 || sg.pruned(past) != 1 {
						t.Fatalf("%s, PruneSlack %v, row %d: bound %v on t − margin at t = %v: pruned %d there, %d past it; want 0 and 1",
							sg.name, slack, i, b, tie, sg.pruned(st), sg.pruned(past))
					}
					ties++
				}
			}
			if ties < 20 {
				t.Fatalf("%s, PruneSlack %v: only %d rows with an exact tie", sg.name, slack, ties)
			}
		}
	}
}
