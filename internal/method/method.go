// Package method is the single registry of retrieval methods: one
// Descriptor per method couples the paper name (and CLI aliases) with
// the kernel factory (the method's one implementation, run by
// engine.Engine at every shard count) and capability flags. Every
// dispatch site in the repository — the experiments harness, the public
// constructors in the root package, and the fexbench/fexquery/fexcalibrate
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
	// the registry does not truncate, and refuses rows of another width
	// than the items'.
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

// Descriptor registers one retrieval method.
type Descriptor struct {
	// Name is the canonical paper name ("F-SIR", "SS-L", "BallTree", …).
	Name string
	// Aliases are extra lookup keys (lookup is case-insensitive, so only
	// genuinely different spellings belong here, e.g. "ssl").
	Aliases []string
	// Doc is a one-line description for -help style listings.
	Doc string

	// Exact marks methods that return the provably exact top-k: the
	// registry battery holds them to Naive's answers, and holds the
	// approximate rest only to their own cancellation and shard contracts.
	Exact bool
	// ShardInvariant marks methods whose sharded execution is
	// bit-identical to the single-shard scan for every shard count
	// (searchtest.CheckSharded-pinned).
	ShardInvariant bool
	// Table includes the method in the paper's Table 4 method list, in
	// registration order.
	Table bool
	// Pruning includes the method in the Tables 3/7 pruning columns.
	Pruning bool

	// NewKernel constructs the method: its index over items, partitioned
	// into (at most) shards scan ranges. It is the descriptor's one
	// factory — the kernel is the method, engine.Engine the one top-k
	// searcher over it, and the sequential form is shards = 1 — so a
	// registered method is covered by internal/method's registry-driven
	// test by being registered.
	NewKernel func(items *vec.Matrix, o BuildOptions, shards int) (engine.Kernel, error)
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
