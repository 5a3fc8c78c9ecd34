package searchtest

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"fexipro/internal/faults"
	"fexipro/internal/method"
	"fexipro/internal/plan"
	"fexipro/internal/search"
	"fexipro/internal/vec"
)

// PlannerShardCounts are the execution widths CheckPlannerExact runs at:
// the sequential path and a sharded-engine path.
var PlannerShardCounts = []int{1, 4}

// CheckPlannerExact is the query planner's correctness harness: a
// planner over the named registry methods must be a PURE delegator.
// For every query, at shards ∈ {1, 4}:
//
//   - the result set is bit-identical to what the chosen candidate
//     (LastDecision().Method) returns for the same query, and the
//     planner's Stats() are exactly that candidate's stage counters;
//   - cancellation behaves as if the chosen method had been called
//     directly — a fired fault yields an ErrDeadline-wrapping error
//     with true-score, sorted partial results, and the decision is
//     flagged Cancelled;
//   - a deliberately mispredicting cost model (coefficients swapped so
//     the worst candidate looks free) changes only WHICH method runs,
//     never what it returns: the wrong plan is slow, never wrong.
func CheckPlannerExact(t *testing.T, names []string, label string) {
	t.Helper()
	for _, shards := range PlannerShardCounts {
		rng := rand.New(rand.NewSource(777))
		items, _ := RandomInstance(rng, 500, 16)
		const k = 8

		p, cands := buildPlanner(t, names, items, shards, label)
		checkDelegation(t, rng, p, cands, items, k, shards, label)

		p2, _ := buildPlanner(t, names, items, shards, label)
		checkPlannerCancellation(t, rng, p2, items, k, shards, label)

		p3, _ := buildPlanner(t, names, items, shards, label)
		checkMispredictingModel(t, rng, p3, items, k, shards, label)
	}
}

// buildPlanner constructs a planner over registry methods plus the map
// of candidate searchers by canonical name (the same instances the
// planner routes to, so comparisons are against identical state).
func buildPlanner(t *testing.T, names []string, items *vec.Matrix, shards int, label string) (*plan.Planner, map[string]search.Searcher) {
	t.Helper()
	var cands []plan.Candidate
	byName := make(map[string]search.Searcher, len(names))
	for _, name := range names {
		d, err := method.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		s, err := method.Sharded(name, items, method.BuildOptions{}, shards, 2)
		if err != nil {
			t.Fatalf("%s: building %s: %v", label, name, err)
		}
		cands = append(cands, plan.Candidate{Name: d.Name, Searcher: s, Cost: d.Cost, Exact: d.Exact})
		byName[d.Name] = s
	}
	p, err := plan.New(cands, plan.Options{N: items.Rows, D: items.Cols, Shards: shards, Workers: 2})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return p, byName
}

// checkDelegation verifies result and stats identity between the
// planner and its chosen candidate across enough queries to leave
// warmup and exercise cost decisions.
func checkDelegation(t *testing.T, rng *rand.Rand, p *plan.Planner, cands map[string]search.Searcher, items *vec.Matrix, k, shards int, label string) {
	t.Helper()
	for trial := 0; trial < 12; trial++ {
		q := randomQuery(rng, items.Cols)
		res, err := p.SearchContext(context.Background(), q, k)
		if err != nil {
			t.Fatalf("%s shards=%d trial %d: %v", label, shards, trial, err)
		}
		d := p.LastDecision()
		chosen, ok := cands[d.Method]
		if !ok {
			t.Fatalf("%s shards=%d: decision names unknown candidate %q", label, shards, d.Method)
		}
		// Stats identity: the planner's counters ARE the chosen
		// candidate's counters for this query — nothing added, nothing
		// rescaled. (Read before re-running the candidate below.)
		cs, ok := chosen.(interface{ Stats() search.Stats })
		if !ok {
			t.Fatalf("%s: candidate %s exposes no Stats()", label, d.Method)
		}
		if got, want := p.Stats(), cs.Stats(); got != want {
			t.Fatalf("%s shards=%d: planner stats %+v != chosen %s stats %+v", label, shards, got, d.Method, want)
		}
		// Result identity: the same candidate instance answering the
		// same query must return the planner's exact result set, bit
		// for bit.
		want, werr := chosen.SearchContext(context.Background(), q, k)
		if werr != nil {
			t.Fatalf("%s shards=%d: re-running %s: %v", label, shards, d.Method, werr)
		}
		if len(res) != len(want) {
			t.Fatalf("%s shards=%d: planner %d results, %s returned %d", label, shards, len(res), d.Method, len(want))
		}
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("%s shards=%d rank %d: planner %+v != %s %+v", label, shards, i, res[i], d.Method, want[i])
			}
		}
		CheckTopK(t, items, q, k, res, label+"/vs-naive")
	}
}

// checkPlannerCancellation verifies the planner preserves the chosen
// method's cancellation contract: ErrDeadline partials with true
// scores, Cancelled recorded on the decision, and no stale state on
// the next uncancelled query.
func checkPlannerCancellation(t *testing.T, rng *rand.Rand, p *plan.Planner, items *vec.Matrix, k, shards int, label string) {
	t.Helper()
	q := randomQuery(rng, items.Cols)
	fired := 0
	for trial := 0; trial < 20; trial++ {
		cancelAt := 1 + rng.Intn(400)
		reg := faults.NewRegistry(int64(4000 + trial))
		hook := reg.Enable(faults.SiteScan, faults.Plan{CancelAtItem: cancelAt})
		p.SetFaultHook(hook)
		res, err := p.SearchContext(context.Background(), q, k)
		p.SetFaultHook(nil)
		d := p.LastDecision()
		if hook.Counts().Cancels > 0 {
			fired++
			if err == nil {
				t.Fatalf("%s shards=%d: cancel fired at %d but planner returned nil error", label, shards, cancelAt)
			}
			if !errors.Is(err, search.ErrDeadline) {
				t.Fatalf("%s shards=%d: cancellation error %v does not wrap ErrDeadline", label, shards, err)
			}
			if !d.Cancelled {
				t.Fatalf("%s shards=%d: cancelled query's decision %+v not flagged Cancelled", label, shards, d)
			}
		} else if err != nil {
			t.Fatalf("%s shards=%d: unfired cancel at %d errored: %v", label, shards, cancelAt, err)
		}
		for i, r := range res {
			actual := vecDot(q, items, r.ID)
			if !scoreClose(actual, r.Score) {
				t.Fatalf("%s shards=%d: partial result item %d score %v, true product %v", label, shards, r.ID, r.Score, actual)
			}
			if i > 0 && res[i-1].Score < r.Score {
				t.Fatalf("%s shards=%d: partial results unsorted at rank %d", label, shards, i)
			}
		}
	}
	if fired == 0 {
		t.Fatalf("%s shards=%d: no cancellation fault ever fired; harness is vacuous", label, shards)
	}
	// Cancelled observations must not poison routing: the next clean
	// query is still exact.
	res, err := p.SearchContext(context.Background(), q, k)
	if err != nil {
		t.Fatalf("%s shards=%d: post-cancel query errored: %v", label, shards, err)
	}
	CheckTopK(t, items, q, k, res, label+"/post-cancel")
}

// checkMispredictingModel injects a deliberately wrong calibration —
// every candidate's coefficients scrambled so predicted costs are
// nonsense — and verifies exactness is untouched: whatever method the
// bad model picks, the answer is still the exact top-k.
func checkMispredictingModel(t *testing.T, rng *rand.Rand, p *plan.Planner, items *vec.Matrix, k, shards int, label string) {
	t.Helper()
	bad := &plan.Calibration{Schema: plan.Schema, Methods: map[string]method.CostModel{}}
	for i, name := range p.Candidates() {
		// Alternate absurdly-free and absurdly-expensive priors so the
		// argmin lands on a "free" candidate regardless of its true cost.
		if i%2 == 0 {
			bad.Methods[name] = method.CostModel{Setup: 1e-12, PerItem: 1e-15, PerDim: 1e-15}
		} else {
			bad.Methods[name] = method.CostModel{Setup: 10, PerItem: 1e-3, PerDim: 1e-3}
		}
	}
	p.SetCalibration(bad)
	for trial := 0; trial < 8; trial++ {
		q := randomQuery(rng, items.Cols)
		res, err := p.SearchContext(context.Background(), q, k)
		if err != nil {
			t.Fatalf("%s shards=%d mispredict trial %d: %v", label, shards, trial, err)
		}
		CheckTopK(t, items, q, k, res, label+"/mispredict")
	}
}

func randomQuery(rng *rand.Rand, d int) []float64 {
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	return q
}

func vecDot(q []float64, items *vec.Matrix, id int) float64 {
	return vec.Dot(q, items.Row(id))
}
