// Package plan is the cost-based query planner behind `-method auto`
// (ROADMAP item 1): given several already-built exact retrieval methods
// from the internal/method registry, it predicts each candidate's
// per-query cost from the registry's analytic model — calibrated online
// with an EWMA of the observed latencies and pruning fractions each
// query's obs stage counters already provide — and delegates every
// query to the predicted-cheapest candidate.
//
// Exactness is untouched by construction: the planner never computes a
// score itself, it only picks WHICH registered exact method answers, so
// its results and stage counters are bit-identical to the chosen
// method run standalone (searchtest.CheckPlannerExact pins this, with
// a deliberately mispredicting cost model as the adversarial case — a
// wrong plan is slow, never wrong). Approximate methods are excluded
// from the candidate pool unless Options.AllowApprox opts in.
package plan

import (
	"context"
	"fmt"
	"time"

	"fexipro/internal/faults"
	"fexipro/internal/method"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// Decision reasons recorded per query (span attr plan.reason and the
// fexipro_plan_decisions_total metric's reason label).
const (
	// ReasonWarmup: the candidate had never run; the planner measures
	// every candidate once before trusting predictions.
	ReasonWarmup = "warmup"
	// ReasonProbe: a periodic re-measurement of a non-best candidate so
	// a drifting workload can dethrone the incumbent.
	ReasonProbe = "probe"
	// ReasonCost: the candidate predicted cheapest.
	ReasonCost = "cost"
)

// Candidate is one method the planner may pick.
type Candidate struct {
	// Name is the registry name recorded in decisions and metrics.
	Name string
	// Searcher answers the delegated queries.
	Searcher search.Searcher
	// Cost is the prior cost model, normally the registry descriptor's
	// (overridden by a loaded Calibration).
	Cost method.CostModel
	// Exact marks provably exact candidates; non-exact ones are dropped
	// unless Options.AllowApprox.
	Exact bool
}

// Options configures a Planner.
type Options struct {
	// N and D describe the catalog (cost-model features). SizeFn, when
	// set, overrides N per query — the dynamic-catalog server uses it so
	// predictions track adds and deletes.
	N, D   int
	SizeFn func() int
	// Shards and Workers describe the candidates' execution so the
	// model's parallelism term matches reality.
	Shards, Workers int
	// ProbeEvery re-measures a non-best candidate every ProbeEvery
	// queries (0 = default 64, negative = never probe).
	ProbeEvery int
	// Alpha is the EWMA smoothing factor for observed cost and pruning
	// fractions (0 = default 0.2).
	Alpha float64
	// AllowApprox admits candidates with Exact == false. The planner
	// NEVER picks an approximate method without this.
	AllowApprox bool
	// OnDecision, when set, is invoked after every query with the
	// completed decision (the server bridges this to the
	// fexipro_plan_decisions_total metric). Called with the planner's
	// internal lock held: it must not call back into the Planner.
	OnDecision func(Decision)
}

// Decision is one query's plan: what was picked, why, and how the
// prediction compared to reality.
type Decision struct {
	Method    string  `json:"method"`
	Reason    string  `json:"reason"`
	Predicted float64 `json:"predictedSeconds"`
	Observed  float64 `json:"observedSeconds"`
	// Cancelled marks queries cut short (ErrDeadline): their wall time
	// is reported but excluded from calibration.
	Cancelled bool `json:"cancelled,omitempty"`
}

// candState is one candidate's calibration state.
type candState struct {
	queries    int64            // completed (uncancelled) observations
	chosen     int64            // decisions routed here (any reason)
	reasons    map[string]int64 // reason → decisions
	lastChosen int64            // planner query seq of last routing
	ewmaObs    float64          // observed seconds
	ewmaPred   float64          // predicted seconds at decision time
	ewmaPrune  float64          // observed pruned fraction of n
	ratio      float64          // observed / analytic correction factor
}

// Planner delegates each query to the predicted-cheapest candidate.
// It serializes queries (the candidates' executors are single-query
// and the calibration state is single-writer); for concurrent load,
// give each goroutine its own Planner over shared indexes, or let the
// server's existing request serialization do it.
type Planner struct {
	cands []Candidate
	state []candState
	opts  Options

	seq         int64 // queries planned so far
	mispredicts int64
	last        Decision
	lastStats   search.Stats
}

// New builds a Planner over the candidate pool. Non-exact candidates
// are dropped unless o.AllowApprox; at least one candidate must
// survive.
func New(cands []Candidate, o Options) (*Planner, error) {
	if o.ProbeEvery == 0 {
		o.ProbeEvery = 64
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.2
	}
	kept := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if c.Name == "" || c.Searcher == nil {
			return nil, fmt.Errorf("plan: candidate %+v missing name or searcher", c)
		}
		if !c.Exact && !o.AllowApprox {
			continue
		}
		kept = append(kept, c)
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("plan: no usable candidates (exact required) among %d", len(cands))
	}
	p := &Planner{cands: kept, opts: o, state: make([]candState, len(kept))}
	for i := range p.state {
		p.state[i].reasons = map[string]int64{}
	}
	return p, nil
}

// Candidates lists the candidate method names in pool order.
func (p *Planner) Candidates() []string {
	out := make([]string, len(p.cands))
	for i, c := range p.cands {
		out[i] = c.Name
	}
	return out
}

// SetCalibration replaces matching candidates' cost priors with fitted
// coefficients (fexcalibrate -fit output, or a previous run's persisted
// state) and resets their analytic correction factors — the fit IS the
// correction.
func (p *Planner) SetCalibration(c *Calibration) {
	if c == nil {
		return
	}
	for i := range p.cands {
		if m, ok := c.Methods[p.cands[i].Name]; ok {
			p.cands[i].Cost = m
			p.state[i].ratio = 0
		}
	}
}

// Calibration exports the candidates' current effective cost models
// (prior or fitted, with the online correction folded into the linear
// terms) for persistence, so a restart plans from where this run left
// off.
func (p *Planner) Calibration() *Calibration {
	out := &Calibration{Schema: Schema, Methods: map[string]method.CostModel{}}
	for i, c := range p.cands {
		m := c.Cost
		if st := &p.state[i]; st.queries > 0 {
			if st.ratio > 0 {
				m.Setup *= st.ratio
				m.PerItem *= st.ratio
				m.PerDim *= st.ratio
			}
			m.PrunePrior = st.ewmaPrune
		}
		out.Methods[c.Name] = m
	}
	return out
}

func (p *Planner) features(k int) method.Features {
	n := p.opts.N
	if p.opts.SizeFn != nil {
		n = p.opts.SizeFn()
	}
	return method.Features{N: n, D: p.opts.D, K: k, Shards: p.opts.Shards, Workers: p.opts.Workers, PruneFrac: -1}
}

// predict returns candidate i's corrected cost prediction.
func (p *Planner) predict(i int, f method.Features) float64 {
	st := &p.state[i]
	if st.queries > 0 {
		f.PruneFrac = st.ewmaPrune
	}
	c := p.cands[i].Cost.Predict(f)
	if st.queries > 0 && st.ratio > 0 {
		c *= st.ratio
	}
	return c
}

// pick selects the next candidate: warmup until every candidate has
// one observation, a probe every ProbeEvery queries, otherwise the
// predicted-cheapest.
func (p *Planner) pick(f method.Features) (i int, reason string) {
	for i := range p.cands {
		if p.state[i].queries == 0 {
			return i, ReasonWarmup
		}
	}
	best, bestCost := 0, p.predict(0, f)
	for i := 1; i < len(p.cands); i++ {
		if c := p.predict(i, f); c < bestCost {
			best, bestCost = i, c
		}
	}
	if len(p.cands) > 1 && p.opts.ProbeEvery > 0 && p.seq%int64(p.opts.ProbeEvery) == int64(p.opts.ProbeEvery)-1 {
		// Probe the stalest non-best candidate: cheap insurance against a
		// drifted workload pinning a stale incumbent forever.
		probe, probeAge := -1, int64(-1)
		for i := range p.cands {
			if i == best {
				continue
			}
			if age := p.seq - p.state[i].lastChosen; age > probeAge {
				probe, probeAge = i, age
			}
		}
		if probe >= 0 {
			return probe, ReasonProbe
		}
	}
	return best, ReasonCost
}

// Search implements search.Searcher by delegating to the planned
// candidate.
func (p *Planner) Search(q []float64, k int) []topk.Result {
	res, _ := p.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext plans and delegates one query. The chosen method and
// reason are attached to the context's span as plan.method and
// plan.reason; the result, error, and subsequent Stats() are exactly
// the chosen candidate's.
func (p *Planner) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error) {
	f := p.features(k)
	i, reason := p.pick(f)
	st := &p.state[i]
	pred := p.predict(i, f)
	st.chosen++
	st.reasons[reason]++
	st.lastChosen = p.seq
	p.seq++

	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.AttrStr("plan.method", p.cands[i].Name)
		sp.AttrStr("plan.reason", reason)
	}
	start := time.Now()
	res, err := p.cands[i].Searcher.SearchContext(ctx, q, k)
	observed := time.Since(start).Seconds()
	p.lastStats = p.cands[i].Searcher.Stats()

	d := Decision{Method: p.cands[i].Name, Reason: reason, Predicted: pred, Observed: observed, Cancelled: err != nil}
	p.last = d
	if err == nil {
		p.observe(i, f, pred, observed, reason)
	}
	if p.opts.OnDecision != nil {
		p.opts.OnDecision(d)
	}
	return res, err
}

// observe folds one completed query into candidate i's calibration.
func (p *Planner) observe(i int, f method.Features, pred, observed float64, reason string) {
	st := &p.state[i]
	a := p.opts.Alpha
	prune := 0.0
	if f.N > 0 {
		prune = float64(p.lastStats.TotalPruned()) / float64(f.N)
		if prune < 0 {
			prune = 0
		} else if prune > 1 {
			prune = 1
		}
	}
	f.PruneFrac = prune
	analytic := p.cands[i].Cost.Predict(f)
	ratio := 1.0
	if analytic > 0 {
		ratio = observed / analytic
	}
	if st.queries == 0 {
		st.ewmaObs, st.ewmaPred, st.ewmaPrune, st.ratio = observed, pred, prune, ratio
	} else {
		st.ewmaObs += a * (observed - st.ewmaObs)
		st.ewmaPred += a * (pred - st.ewmaPred)
		st.ewmaPrune += a * (prune - st.ewmaPrune)
		st.ratio += a * (ratio - st.ratio)
	}
	st.queries++

	// A cost-driven decision mispredicted when, with everything this
	// query taught us, some other candidate still predicts materially
	// (25%) cheaper than what the chosen one actually cost. Warmups and
	// probes are deliberately non-optimal and never count.
	if reason == ReasonCost && len(p.cands) > 1 {
		f.PruneFrac = -1
		for j := range p.cands {
			if j != i && p.predict(j, f)*1.25 < observed {
				p.mispredicts++
				break
			}
		}
	}
}

// Stats implements search.Searcher: the counters of the method the
// last query was delegated to, unchanged.
func (p *Planner) Stats() search.Stats { return p.lastStats }

// LastDecision reports the most recent query's plan.
func (p *Planner) LastDecision() Decision { return p.last }

// SetFaultHook forwards the hook to every candidate that accepts one
// (all searchers in this repository do), so fault-injection tests can
// cancel whichever method the planner picks.
func (p *Planner) SetFaultHook(h *faults.Hook) {
	for _, c := range p.cands {
		if fs, ok := c.Searcher.(interface{ SetFaultHook(*faults.Hook) }); ok {
			fs.SetFaultHook(h)
		}
	}
}

// MethodPlan is one candidate's row in a Summary.
type MethodPlan struct {
	Method      string           `json:"method"`
	Queries     int64            `json:"queries"` // decisions routed here
	Decisions   map[string]int64 `json:"decisions"`
	PredictedMs float64          `json:"predictedMs"`
	ObservedMs  float64          `json:"observedMs"`
	PruneFrac   float64          `json:"pruneFrac"`
}

// Summary is the planner's aggregate state: the `plan` block of
// fexbench -statsjson and fexload -slojson, and the body of the
// server's /v1/plan endpoint.
type Summary struct {
	Queries        int64        `json:"queries"`
	Mispredicts    int64        `json:"mispredicts"`
	MispredictRate float64      `json:"mispredictRate"`
	Methods        []MethodPlan `json:"methods"`
}

// Summary snapshots decisions, mispredicts, and per-method
// predicted-vs-observed EWMAs.
func (p *Planner) Summary() Summary {
	s := Summary{Queries: p.seq, Mispredicts: p.mispredicts}
	if p.seq > 0 {
		s.MispredictRate = float64(p.mispredicts) / float64(p.seq)
	}
	for i, c := range p.cands {
		st := &p.state[i]
		reasons := make(map[string]int64, len(st.reasons))
		for r, n := range st.reasons {
			reasons[r] = n
		}
		s.Methods = append(s.Methods, MethodPlan{
			Method:      c.Name,
			Queries:     st.chosen,
			Decisions:   reasons,
			PredictedMs: st.ewmaPred * 1e3,
			ObservedMs:  st.ewmaObs * 1e3,
			PruneFrac:   st.ewmaPrune,
		})
	}
	return s
}

var _ search.Searcher = (*Planner)(nil)
