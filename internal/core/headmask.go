package core

import "fexipro/internal/vec"

// headBound holds the two terms of a row's integer head test (Algorithm
// 5 lines 2–4) that do not depend on the threshold.
type headBound struct {
	bHead float64 // integer upper bound on the head product q̄^ℓᵀp̄^ℓ (Eq. 6)
	ub1   float64 // incremental residual bound ‖q̄^h‖·‖p̄^h‖ (Eq. 1)
}

// headBound evaluates the head-test terms of sorted row i, IU^ℓ in int64.
// Both products are explicitly rounded, here and in the block kernel, so
// no architecture may fuse either into the add that follows and the two
// agree bit for bit wherever the kernel's int32 lanes hold IU^ℓ
// (intData.lanes32).
func (idx *Index) headBound(qs *queryState, i int) headBound {
	return headBound{
		bHead: float64(float64(qs.head.RowIU(i)) * qs.headFactor), //fex:bound
		ub1:   float64(qs.barTail * idx.barTail[i]),               //fex:bound
	}
}

// headBlockMask is the kernel scanBlocked decides a block with: bit j of
// headBlockMask(&qs.head, b, cut) is set iff row b+j IS pruned, bHead + ub1
// < cut, the strict test of candidate. One pass streams the block's head
// floors, headConst and barTail and stores nothing. The scan battery swaps
// in the kernel's plain-Go body to run once per body (kernel_test.go);
// nothing else assigns it.
var headBlockMask = (*vec.HeadTest).BlockMask
