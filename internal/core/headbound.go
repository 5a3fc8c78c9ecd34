package core

// headBound holds the two terms of a row's integer head test (Algorithm
// 5 lines 2–4) that do not depend on the threshold.
type headBound struct {
	bHead float64 // integer upper bound on the head product q̄^ℓᵀp̄^ℓ (Eq. 6)
	ub1   float64 // incremental residual bound ‖q̄^h‖·‖p̄^h‖ (Eq. 1)
}

// headBound evaluates the head-test terms of sorted row i from its IU^ℓ:
// HeadTest.RowIU's int64 in the per-item loop, the lane the run kernel held
// for the row in the blocked one — the same integer, since IU^ℓ fits the
// kernel's int32 lanes at every E the layout takes. Both products are
// explicitly rounded, here and in the kernel, so no architecture may fuse
// either into the add that follows and the two agree bit for bit.
func (idx *Index) headBound(qs *queryState, i int, iu int64) headBound {
	return headBound{
		bHead: float64(float64(iu) * qs.headFactor), //fex:bound
		ub1:   float64(qs.barTail * idx.barTail[i]), //fex:bound
	}
}
