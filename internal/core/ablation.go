package core

import "fexipro/internal/vec"

// Ablation undoes a design choice of the paper so its worth can be
// measured (EXPERIMENTS.md "Ablations"). Only NewAblationIndex takes one:
// no Options field, registry entry, flag or snapshot can carry it, so
// nothing that serves queries is built this way.
type Ablation struct {
	// GlobalIntScaling scales the integer approximation by one maximum
	// over all dimensions (Equation 4) instead of separate head and tail
	// maxima (Equation 7, tighter once the SVD has skewed the ranges).
	GlobalIntScaling bool
	// ReductionFirst tries the monotonicity-reduction bound before the
	// integer bounds — SRI, the order §6 found inferior to SIR. Every row
	// takes scanPerItem, and of the integer bounds only the tail one is
	// left to try once the exact head product is in hand (coordinateScan).
	ReductionFirst bool
}

// NewAblationIndex is NewIndex with ab applied. Only ablation_test.go and
// the root ablation_bench_test.go call it; Save refuses the result.
func NewAblationIndex(items *vec.Matrix, opts Options, ab Ablation) (*Index, error) {
	return newIndex(items, opts, ab)
}
