// Package core implements the FEXIPRO framework (Sections 3–6 of the
// paper): preprocessing (Algorithm 3), retrieval (Algorithm 4), and the
// staged coordinate scan (Algorithm 5) combining the SVD transformation
// (S), scaled integer upper bounds (I), and the monotonicity reduction
// (R) on top of a Cauchy–Schwarz sorted sequential scan.
package core

import (
	"fmt"
	"strings"
)

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
	// dimension w (Section 3): the smallest w whose mass reaches it
	// (Index.RhoW), rounded up to a multiple of vec.HeadStep and at most
	// d−1. Default 0.7 — the paper's best setting.
	Rho float64
	// E is the integer scaling parameter e of Section 4.2: 1 … 127
	// (MaxE), default 100 (≤ 0 selects it). NewIndex refuses a larger E
	// with an ErrIntDomain-wrapping error: every floor is an int8.
	E float64
	// W overrides the checking dimension, used as given (capped at d);
	// ≤ 0 derives it from Rho with SVD, from d/5 without, and rounds that
	// up as under Rho.
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

	// rhoW keeps a derived w unrounded, as every index was built before
	// the rounding: files written then read it back from their option
	// slot (encodeOptions), so a checkpoint rebuilds the index it was
	// taken from. Nothing else sets it.
	rhoW bool
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

// OptionsForVariant parses a paper variant name into Options with
// default parameters: "F", or the techniques in use as a non-empty
// subsequence of S, I, R in that order, each at most once — F-S, F-I,
// F-R, F-SI, F-SR, F-IR, F-SIR — case-insensitive, with or without the
// "F-" prefix. Anything else is an error: "F-SRI" in particular names the
// other check order (ablation.go), not a spelling of F-SIR.
func OptionsForVariant(name string) (Options, error) {
	upper := strings.ToUpper(name)
	if upper == "F" {
		return Options{}, nil
	}
	var o Options
	rest := strings.TrimPrefix(upper, "F-")
	rest, o.SVD = strings.CutPrefix(rest, "S")
	rest, o.Int = strings.CutPrefix(rest, "I")
	rest, o.Reduction = strings.CutPrefix(rest, "R")
	if rest != "" || o == (Options{}) {
		return Options{}, fmt.Errorf("core: unknown variant %q (want F or F- followed by letters of SIR in that order)", name)
	}
	return o, nil
}

// VariantNames lists every name OptionsForVariant accepts, in canonical
// spelling, for flag help.
const VariantNames = "F, F-S, F-I, F-R, F-SI, F-SR, F-IR, F-SIR"
