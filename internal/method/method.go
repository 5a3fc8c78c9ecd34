// Package method is the single registry of retrieval methods: one
// Descriptor per method couples the paper name (and CLI aliases) with
// the kernel factory (the method's one implementation, run by
// engine.Engine at every shard count), capability flags, and an analytic
// cost model. Every dispatch site in the repository —
// the experiments harness, the public constructors in the root package,
// server.Config, and the fexserve/fexbench/fexquery/fexcalibrate
// binaries — resolves method names through this table, so adding a
// method is one Register call, and no string-keyed method switch exists
// anywhere else (internal/method's own tests enforce that at the source
// level).
package method

import (
	"fmt"
	"sort"
	"strings"

	"fexipro/internal/engine"
	"fexipro/internal/vec"
)

// BuildOptions carries every tuning knob any registered method accepts.
// Zero values select the same defaults the constructors used before the
// registry existed; fields a method does not use are ignored by its
// Descriptor.
type BuildOptions struct {
	// SampleQueries drives LEMP-style w tuning for SS-L and LEMP (nil =
	// untuned defaults). Callers pass the handful of rows they want used;
	// the registry does not truncate.
	SampleQueries *vec.Matrix
	// W is the checking dimension: SS's scan prefix, or the FEXIPRO
	// override for the ρ-derived w (0 = derive).
	W int
	// Rho, E are the FEXIPRO family's preprocessing parameters (zero
	// values = paper defaults ρ=0.7, e=100).
	Rho, E float64
	// LeafSize bounds tree leaves for BallTree/FastMKS/PCATree (0 = 20).
	LeafSize int
	// BucketSize is LEMP's norm-bucket size (0 = default).
	BucketSize int
	// SpillFraction is PCATree's spill overlap (0 = no spill).
	SpillFraction float64
}

// CostModel is one method's analytic per-query cost in seconds:
//
//	cost = Setup + (PerItem·n + PerDim·(1-prune)·n·d) / parallelism
//
// Setup covers the query transform (SVD projection, integer floors),
// PerItem the per-candidate bound check (or amortized tree-node visit),
// and PerDim one multiply-add of a full inner product. PrunePrior is
// the fraction of items expected to be eliminated before their full
// product when no observed pruning fraction is available. The
// coefficients are deliberately coarse priors — the planner calibrates
// them online (EWMA of observed cost) and fexcalibrate -fit replaces
// them with least-squares fits over real sweeps.
type CostModel struct {
	Setup      float64 `json:"setup"`
	PerItem    float64 `json:"perItem"`
	PerDim     float64 `json:"perDim"`
	PrunePrior float64 `json:"prunePrior"`
}

// Features are the planner-visible query/workload parameters the cost
// model predicts from.
type Features struct {
	N, D, K         int
	Shards, Workers int
	// PruneFrac is the observed fraction of items pruned before a full
	// product (search.Stats.TotalPruned / n); a negative value selects
	// the model's prior.
	PruneFrac float64
}

// Parallelism is the effective per-query speedup of the sharded
// execution engine: shards bounded by the worker pool, never below 1.
func (f Features) Parallelism() float64 {
	s := f.Shards
	if s < 1 {
		s = 1
	}
	w := f.Workers
	if w <= 0 || w > s {
		w = s
	}
	return float64(w)
}

// Predict returns the modeled per-query seconds for these features.
func (m CostModel) Predict(f Features) float64 {
	prune := f.PruneFrac
	if prune < 0 {
		prune = m.PrunePrior
	}
	if prune < 0 {
		prune = 0
	} else if prune > 1 {
		prune = 1
	}
	n := float64(f.N)
	survivors := (1 - prune) * n
	return m.Setup + (m.PerItem*n+m.PerDim*survivors*float64(f.D))/f.Parallelism()
}

// Descriptor registers one retrieval method.
type Descriptor struct {
	// Name is the canonical paper name ("F-SIR", "SS-L", "BallTree", …).
	Name string
	// Aliases are extra lookup keys (lookup is case-insensitive, so only
	// genuinely different spellings belong here, e.g. "ssl").
	Aliases []string
	// Doc is a one-line description for -help style listings.
	Doc string

	// Exact marks methods that return the provably exact top-k. The
	// planner never picks a non-exact method unless explicitly allowed.
	Exact bool
	// Dynamic marks methods whose index admits online add/delete
	// (served by core.DynamicIndex or a plain catalog scan).
	Dynamic bool
	// ShardInvariant marks methods whose sharded execution is
	// bit-identical to the single-shard scan for every shard count
	// (searchtest.CheckSharded-pinned).
	ShardInvariant bool
	// Table includes the method in the paper's Table 4 method list, in
	// registration order.
	Table bool
	// Pruning includes the method in the Tables 3/7 pruning columns.
	Pruning bool
	// AutoCandidate includes the method in the default `-method auto`
	// planner pool. The pool spans the blocked-scan vs pruned-scan vs
	// full-index tradeoff ("To Index or Not to Index") without building
	// every registered index per catalog.
	AutoCandidate bool

	// NewKernel constructs the method: its index over items, partitioned
	// into (at most) shards scan ranges. It is the descriptor's one
	// factory — the kernel is the method, engine.Engine the one top-k
	// searcher over it, and the sequential form is shards = 1 — so a
	// registered method is covered by internal/method's registry-driven
	// test by being registered.
	NewKernel func(items *vec.Matrix, o BuildOptions, shards int) (engine.Kernel, error)

	// Cost is the method's prior cost model (see CostModel).
	Cost CostModel
}

var (
	ordered []*Descriptor
	byKey   = map[string]*Descriptor{}
)

// Register adds a descriptor to the registry. It panics on a duplicate
// name/alias or a descriptor missing its kernel factory — registration
// happens in init, so these are programming errors.
func Register(d Descriptor) {
	if d.Name == "" || d.NewKernel == nil {
		panic(fmt.Sprintf("method: incomplete descriptor %q", d.Name))
	}
	dc := d
	for _, key := range append([]string{d.Name}, d.Aliases...) {
		k := strings.ToLower(key)
		if _, dup := byKey[k]; dup {
			panic(fmt.Sprintf("method: duplicate registration %q", key))
		}
		byKey[k] = &dc
	}
	ordered = append(ordered, &dc)
}

// Lookup resolves a method name or alias, case-insensitively.
func Lookup(name string) (*Descriptor, bool) {
	d, ok := byKey[strings.ToLower(name)]
	return d, ok
}

// Get is Lookup returning a descriptive error for unknown names.
func Get(name string) (*Descriptor, error) {
	d, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("method: unknown method %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return d, nil
}

// Names lists every registered method in registration order.
func Names() []string {
	out := make([]string, len(ordered))
	for i, d := range ordered {
		out[i] = d.Name
	}
	return out
}

// TableNames lists the methods of the paper's Table 4, in table order.
func TableNames() []string { return filtered(func(d *Descriptor) bool { return d.Table }) }

// PruningNames lists the pruning-table methods (Tables 3 and 7 columns).
func PruningNames() []string { return filtered(func(d *Descriptor) bool { return d.Pruning }) }

// ExactNames lists the provably exact methods — the planner's candidate
// pool when approximate methods are not explicitly allowed.
func ExactNames() []string { return filtered(func(d *Descriptor) bool { return d.Exact }) }

// AutoNames lists the default `-method auto` candidate pool.
func AutoNames() []string { return filtered(func(d *Descriptor) bool { return d.AutoCandidate }) }

func filtered(keep func(*Descriptor) bool) []string {
	var out []string
	for _, d := range ordered {
		if keep(d) {
			out = append(out, d.Name)
		}
	}
	return out
}

// Aliases returns every lookup key (canonical names and aliases),
// sorted, for CLI usage strings.
func Aliases() []string {
	out := make([]string, 0, len(byKey))
	for k := range byKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sharded constructs the named method partitioned into shards (values
// < 1 mean one: the sequential scan) answered by a pool of workers
// goroutines through the sharded execution engine.
func Sharded(name string, items *vec.Matrix, o BuildOptions, shards, workers int) (*engine.Engine, error) {
	d, err := Get(name)
	if err != nil {
		return nil, err
	}
	kern, err := d.NewKernel(items, o, shards)
	if err != nil {
		return nil, err
	}
	return engine.New(kern, workers), nil
}
