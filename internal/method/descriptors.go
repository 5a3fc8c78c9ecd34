package method

import (
	"fmt"

	"fexipro/internal/balltree"
	"fexipro/internal/core"
	"fexipro/internal/covertree"
	"fexipro/internal/engine"
	"fexipro/internal/lemp"
	"fexipro/internal/pcatree"
	"fexipro/internal/scan"
	"fexipro/internal/vec"
)

// The descriptors below register every retrieval method the repository
// implements, in a fixed order: Table-flagged entries reproduce the
// paper's Table 4 column order exactly (Naive, BallTree, FastMKS, SS-L,
// F-S, F-I, F-SI, F-SR, F-SIR), with the off-table methods (SS, LEMP,
// PCATree, bare F) interleaved where they fit the family grouping.
func init() {
	Register(Descriptor{
		Name:           "Naive",
		Aliases:        []string{"scan"},
		Doc:            "exhaustive blocked scan; no preprocessing, no pruning",
		Exact:          true,
		ShardInvariant: true,
		Table:          true,
		NewKernel: func(items *vec.Matrix, o BuildOptions, shards int) (engine.Kernel, error) {
			return scan.NewNaiveKernel(scan.NewNaive(items), shards), nil
		},
	})
	Register(Descriptor{
		Name:           "BallTree",
		Doc:            "metric-tree exact MIPS of Ram & Gray",
		Exact:          true,
		ShardInvariant: true,
		Table:          true,
		Pruning:        true,
		NewKernel: func(items *vec.Matrix, o BuildOptions, shards int) (engine.Kernel, error) {
			return balltree.NewKernel(items, o.LeafSize, shards), nil
		},
	})
	Register(Descriptor{
		Name:           "FastMKS",
		Aliases:        []string{"covertree"},
		Doc:            "cover-tree max-kernel search of Curtin et al.",
		Exact:          true,
		ShardInvariant: true,
		Table:          true,
		NewKernel: func(items *vec.Matrix, o BuildOptions, shards int) (engine.Kernel, error) {
			return covertree.NewKernel(items, o.LeafSize, shards), nil
		},
	})
	Register(Descriptor{
		Name:           "SS",
		Doc:            "Cauchy–Schwarz sorted scan with incremental pruning",
		Exact:          true,
		ShardInvariant: true,
		NewKernel: func(items *vec.Matrix, o BuildOptions, shards int) (engine.Kernel, error) {
			idx, err := newSSIndex(items, o)
			if err != nil {
				return nil, err
			}
			return core.NewSharded(idx, shards), nil
		},
	})
	Register(Descriptor{
		Name:           "SS-L",
		Aliases:        []string{"ssl"},
		Doc:            "LEMP-style normalized sorted scan with tuned checking dimension",
		Exact:          true,
		ShardInvariant: true,
		Table:          true,
		Pruning:        true,
		NewKernel: func(items *vec.Matrix, o BuildOptions, shards int) (engine.Kernel, error) {
			if err := checkSamples(items, o); err != nil {
				return nil, err
			}
			return lemp.NewKernel(lemp.NewSSL(items, o.SampleQueries), shards), nil
		},
	})
	Register(Descriptor{
		Name:           "LEMP",
		Doc:            "bucketed batch top-k join engine of Teflioudi et al.",
		Exact:          true,
		ShardInvariant: true,
		NewKernel: func(items *vec.Matrix, o BuildOptions, shards int) (engine.Kernel, error) {
			if err := checkSamples(items, o); err != nil {
				return nil, err
			}
			return lemp.NewKernel(lemp.New(items, lemp.Options{BucketSize: o.BucketSize, SampleQueries: o.SampleQueries}), shards), nil
		},
	})
	Register(Descriptor{
		Name: "PCATree",
		Doc:  "APPROXIMATE PCA-tree of Bachrach et al.",
		NewKernel: func(items *vec.Matrix, o BuildOptions, shards int) (engine.Kernel, error) {
			return pcatree.NewKernel(pcatree.New(items, pcatree.Options{LeafSize: o.LeafSize, SpillFraction: o.SpillFraction}), shards), nil
		},
	})
	// The FEXIPRO family: one descriptor per paper variant, all built
	// through core.OptionsForVariant so the name → technique-set parsing
	// stays in internal/core where the techniques live.
	fex := func(variant string, pruning, table bool) {
		Register(Descriptor{
			Name:           variant,
			Doc:            "FEXIPRO variant " + variant,
			Exact:          true,
			ShardInvariant: true,
			Table:          table,
			Pruning:        pruning,
			NewKernel: func(items *vec.Matrix, o BuildOptions, shards int) (engine.Kernel, error) {
				idx, err := newCoreIndex(variant, items, o)
				if err != nil {
					return nil, err
				}
				return core.NewSharded(idx, shards), nil
			},
		})
	}
	fex("F-S", true, true)
	fex("F-I", false, true)
	fex("F-SI", true, true)
	fex("F-SR", false, true)
	fex("F-SIR", true, true)
	fex("F", false, false)
}

// newCoreIndex builds a FEXIPRO core index for a paper variant with the
// registry's tuning knobs applied.
func newCoreIndex(variant string, items *vec.Matrix, o BuildOptions) (*core.Index, error) {
	opts, err := core.OptionsForVariant(variant)
	if err != nil {
		return nil, err
	}
	opts.Rho = o.Rho
	opts.E = o.E
	opts.W = o.W
	return core.NewIndex(items, opts)
}

// newSSIndex builds SS (Algorithms 1 and 2): the sorted scan with
// Cauchy–Schwarz termination and incremental pruning at w = o.W (d/5 by
// default) is variant F compared strictly, as the paper states it — no
// float-rounding slack, which only the transformed variants need.
func newSSIndex(items *vec.Matrix, o BuildOptions) (*core.Index, error) {
	return core.NewIndex(items, core.Options{W: o.W, PruneSlack: -1})
}

// checkSamples refuses tuning samples whose width is not the catalog's,
// which the SS-L and LEMP builds would otherwise panic on.
func checkSamples(items *vec.Matrix, o BuildOptions) error {
	if o.SampleQueries != nil && o.SampleQueries.Cols != items.Cols {
		return fmt.Errorf("method: sample query dim %d != item dim %d", o.SampleQueries.Cols, items.Cols)
	}
	return nil
}
