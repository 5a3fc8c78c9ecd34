// Package boundflow is the golden fixture for the boundflow analyzer:
// direction-aware taint from //fex:bound sources through locals,
// function returns (bound-fn facts, cross-package included) and call
// arguments, the sanitizing exact recompute, and the
// conservative-comparison rule. The kernelcontract fixture covers the
// threshold label under a kernel-shaped Scan and the prune-exit rule.
package boundflow

import "fexipro/internal/lint/testdata/src/boundflow/bounds"

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// headBound combines a partial sum with a Cauchy–Schwarz tail cap; the
// annotation lets callers inherit the taint through the return value.
//
//fex:bound
func headBound(partial, tailQ, tailP float64) float64 {
	return partial + tailQ*tailP
}

// throughLocals: taint survives locals and bound-preserving arithmetic.
func throughLocals(q, p []float64, qTail, pTail, t float64) bool {
	partial := dot(q, p)
	ub := partial + qTail*pTail //fex:bound
	scaled := ub * 1.25
	shifted := scaled + 0.5
	if shifted <= t { // want `comparison "<=" on a bound-derived value.*; use <$`
		return false
	}
	return shifted >= t // legal: tie-keeping keep
}

// viaReturn: a call to a //fex:bound function taints its result.
func viaReturn(partial, qTail, pTail, t float64) bool {
	b := headBound(partial, qTail, pTail)
	return b > t // want `comparison ">" on a bound-derived value`
}

// crossPkg: the bound-fn fact crosses package boundaries.
func crossPkg(qNorm, pNorm, t float64) bool {
	lb := bounds.LengthBound(qNorm, pNorm)
	if t >= lb { // want `comparison ">=" on a bound-derived value`
		return true
	}
	return lb < t // legal: strict prune
}

// cleanCall: an unannotated callee's result stays clean even when fed
// a bound — the callee is an opaque sanitizer by default.
func cleanCall(qNorm, pNorm, t float64) bool {
	lb := bounds.LengthBound(qNorm, pNorm)
	h := bounds.Halve(lb)
	return h > t // legal: h is not a bound
}

// leak: a bound escaping an unannotated function is reported.
func leak(partial, qTail, pTail float64) float64 {
	ub := partial + qTail*pTail //fex:bound
	return ub                   // want `bound-derived value returned from a function not annotated`
}

// sanitize: reassigning from an exact recompute KILLS the taint — the
// analysis is flow-sensitive, so the later comparison is unrestricted.
func sanitize(q, p []float64, qTail, pTail, t float64) bool {
	v := dot(q, p[:len(q)/2])
	v = v + qTail*pTail //fex:bound
	if v < t {
		return false
	}
	v = dot(q, p) // exact recompute: clean from here on
	return v > t  // legal: no bound reaches this comparison
}

// flip: dividing BY a bound flips the inequality direction and yields
// a conservative per-item threshold (the SS-L theta idiom) — clean.
func flip(qNorm, pNorm, cos, t float64) bool {
	lenBound := qNorm * pNorm //fex:bound
	if lenBound < t {
		return false
	}
	theta := t / lenBound
	return cos > theta // legal: theta is a threshold, not a bound
}

// equality: == / != never keep the equality case correctly.
func equality(partial, qTail, pTail, t float64) bool {
	ub := partial + qTail*pTail //fex:bound
	return ub == t              // want `comparison "==" on a bound-derived value`
}

// rightSide: the mirrored rule when the bound sits on the right.
func rightSide(partial, qTail, pTail, t float64) bool {
	ub := partial + qTail*pTail //fex:bound
	if t < ub {                 // want `comparison "<" on a bound-derived value.*; use <=$`
		return true
	}
	return t > ub // legal: threshold strictly above the bound prunes
}

// passBound: a bound passed to a same-unit helper labels the helper's
// parameter, with no threshold anywhere in sight.
func passBound(q, p []float64, qTail, pTail, floor float64) bool {
	ub1 := qTail * pTail //fex:bound
	return residual(dot(q, p), ub1, floor)
}

func residual(v, ub1, floor float64) bool {
	return v+ub1 <= floor // want `comparison "<=" on a bound-derived value`
}

// negatedPrune: -ub > -t is the strict prune ub < t, but an operator
// rewrite cannot see through the negation (`>=` would prune ties), so
// both comparisons are reported and neither carries a fix.
func negatedPrune(partial, qTail, pTail, t float64) bool {
	ub := partial + qTail*pTail //fex:bound
	if -ub > -t {               // want `comparison ">" on a negated bound-derived value.*un-negated.*\)$`
		return false
	}
	return -ub >= -t // want `comparison ">=" on a negated bound-derived value.*un-negated.*\)$`
}
