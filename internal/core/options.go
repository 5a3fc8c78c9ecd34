// Package core implements the FEXIPRO framework (Sections 3–6 of the
// paper): preprocessing (Algorithm 3), retrieval (Algorithm 4), and the
// staged coordinate scan (Algorithm 5) combining the SVD transformation
// (S), scaled integer upper bounds (I), and the monotonicity reduction
// (R) on top of a Cauchy–Schwarz sorted sequential scan.
package core

import "fmt"

// Options selects the FEXIPRO variant and its parameters.
type Options struct {
	// SVD enables the lossless SVD transformation of Section 3 ("S").
	SVD bool
	// Int enables the scaled integer upper bound of Section 4 ("I").
	Int bool
	// Reduction enables the monotonicity reduction of Section 5 ("R").
	// The paper's workflow applies it after SVD (the SIR order); it can
	// be enabled without SVD but is not expected to help there.
	Reduction bool

	// Rho is the singular-value mass ratio that selects the checking
	// dimension w (Section 3). Default 0.7 — the paper's best setting.
	Rho float64
	// E is the integer scaling parameter e of Section 4.2. Default 100.
	E float64
	// W overrides the checking dimension; ≤ 0 derives it from Rho (with
	// SVD) or uses d/5 (without).
	W int
	// PruneSlack is the relative safety margin added to every pruning
	// comparison so float64 rounding can never discard a true top-k item
	// (the transformations are lossless in real arithmetic only).
	// Default 1e-9; set negative to force exactly the paper's strict
	// comparisons.
	PruneSlack float64
	// RankTol is the relative threshold under which singular values are
	// treated as zero. Default 1e-12.
	RankTol float64

	// Ablation switches (all default false = the paper's configuration).
	// They quantify the value of individual design choices; see
	// ablation_bench_test.go at the repository root.

	// GlobalIntScaling scales integer approximations with one maximum
	// over all dimensions (Equation 4) instead of separate head/tail
	// maxima (Equation 7). The paper argues Eq. 7 is tighter after the
	// SVD transformation skews the value ranges.
	GlobalIntScaling bool
	// ReductionFirst attempts the monotonicity-reduction bound BEFORE
	// the integer bounds in the coordinate scan — the SRI order the
	// paper found inferior to SIR.
	ReductionFirst bool
	// Unsorted scans items in their original order, disabling the
	// early-termination break (the length test still prunes items
	// individually). Quantifies the value of the norm sort.
	Unsorted bool

	// CompactInts stores the d−w tail columns of the integer
	// approximation as int16 instead of int32 — the "small integer
	// types" direction of the paper's future-work discussion: with
	// e = 100 the floors fit comfortably, halving that table. The w head
	// columns are not affected: they are always packed into 64-bit
	// words (three 21-bit fields at e = 100), sized from E and w alone.
	// Ignored (with int32 fallback) when E > 16000 would overflow int16.
	CompactInts bool
}

func (o Options) withDefaults() Options {
	if o.Rho <= 0 || o.Rho > 1 {
		o.Rho = 0.7
	}
	if o.E <= 0 {
		o.E = 100
	}
	if o.PruneSlack == 0 {
		o.PruneSlack = 1e-9
	}
	if o.PruneSlack < 0 {
		o.PruneSlack = 0
	}
	if o.RankTol <= 0 {
		o.RankTol = 1e-12
	}
	return o
}

// Variant returns the paper's name for the enabled technique set:
// F-S, F-I, F-SI, F-SR, F-SIR, or F (bare sorted scan with incremental
// pruning).
func (o Options) Variant() string {
	s := "F"
	if o.SVD || o.Int || o.Reduction {
		s += "-"
	}
	if o.SVD {
		s += "S"
	}
	if o.Int {
		s += "I"
	}
	if o.Reduction {
		s += "R"
	}
	return s
}

// OptionsForVariant parses a paper variant name ("F-S", "F-I", "F-SI",
// "F-SR", "F-SIR", case-insensitive, with or without the "F-" prefix)
// into Options with default parameters.
func OptionsForVariant(name string) (Options, error) {
	var o Options
	suffix := name
	if suffix == "F" || suffix == "f" {
		return o, nil
	}
	if len(suffix) >= 2 && (suffix[0] == 'F' || suffix[0] == 'f') && suffix[1] == '-' {
		suffix = suffix[2:]
	}
	for _, ch := range suffix {
		switch ch {
		case 'S', 's':
			o.SVD = true
		case 'I', 'i':
			o.Int = true
		case 'R', 'r':
			o.Reduction = true
		default:
			return Options{}, fmt.Errorf("core: unknown variant %q", name)
		}
	}
	return o, nil
}
