package core

import "fexipro/internal/vec"

// headBound holds the two terms of a row's integer head test (Algorithm
// 5 lines 2–4) that do not depend on the threshold.
type headBound struct {
	bHead float64 // integer upper bound on the head product q̄^ℓᵀp̄^ℓ (Eq. 6)
	ub1   float64 // incremental residual bound ‖q̄^h‖·‖p̄^h‖ (Eq. 1)
}

// headBound evaluates the head-test terms of sorted row i. Both products
// are explicitly rounded, here and in headTest.push, so no architecture
// may fuse either into the add that follows and the two agree bit for
// bit.
func (idx *Index) headBound(qs *queryState, i int) headBound {
	id := idx.ints
	iuHead := id.lay.Field(vec.DotPacked(id.head[i*id.nw:], qs.qHead)) + id.headConst[i] + qs.qHeadConst
	return headBound{
		bHead: float64(float64(iuHead) * qs.headFactor), //fex:bound
		ub1:   float64(qs.barTail * idx.barTail[i]),     //fex:bound
	}
}

// headTest is the head test of one query against one cut = t − margin,
// minus the packed dot: the per-query side of headMask's row loops.
type headTest struct {
	lay     vec.PackedLayout
	qConst  int64   // queryState.qHeadConst
	factor  float64 // queryState.headFactor
	barTail float64 // queryState.barTail
	cut     float64
}

// push decides the next row — packed head dot acc, its headConst and
// ‖p̄^h‖ — and shifts the verdict into the top of m: 1 when
// bHead + ub1 < cut, the strict prune of candidate.
func (h *headTest) push(m uint32, acc uint64, headConst int64, barTail float64) uint32 {
	m >>= 1
	bound := float64(float64(h.lay.Field(acc)+headConst+h.qConst)*h.factor) + float64(h.barTail*barTail) //fex:bound
	if bound < h.cut {
		m |= 1 << 31
	}
	return m
}

// headMask runs the integer head test on the sorted rows [i, stop), at
// most 32 of them, against cut = t − margin: bit j of the result is set
// iff row i+j is NOT pruned. One pass streams the packed head words,
// headConst and barTail and stores nothing. The word counts the §7
// profiles produce at d = 10…100 under the 3×21 layout get a
// straight-line dot — the compiler keeps the generic word loop's
// accumulator on the stack, which costs 1.5–1.7× per row at five to
// seven words (BenchmarkHeadMask) — and every other shape takes
// headMaskGeneric.
func (idx *Index) headMask(qs *queryState, i, stop int, cut float64) uint32 {
	id := idx.ints
	h := headTest{lay: id.lay, qConst: qs.qHeadConst, factor: qs.headFactor, barTail: qs.barTail, cut: cut}
	consts := id.headConst[i:stop]
	tails := idx.barTail[i:stop]
	tails = tails[:len(consts)]
	var m uint32
	switch id.nw {
	case 3:
		head, q := id.head[i*3:stop*3], (*[3]uint64)(qs.qHead)
		//fex:hot
		for j, hc := range consts {
			if len(head) < 3 {
				break
			}
			r := head[:3]
			head = head[3:]
			m = h.push(m, r[0]*q[0]+r[1]*q[1]+r[2]*q[2], hc, tails[j])
		}
	case 5:
		head, q := id.head[i*5:stop*5], (*[5]uint64)(qs.qHead)
		//fex:hot
		for j, hc := range consts {
			if len(head) < 5 {
				break
			}
			r := head[:5]
			head = head[5:]
			m = h.push(m, r[0]*q[0]+r[1]*q[1]+r[2]*q[2]+r[3]*q[3]+r[4]*q[4], hc, tails[j])
		}
	case 6:
		head, q := id.head[i*6:stop*6], (*[6]uint64)(qs.qHead)
		//fex:hot
		for j, hc := range consts {
			if len(head) < 6 {
				break
			}
			r := head[:6]
			head = head[6:]
			m = h.push(m, r[0]*q[0]+r[1]*q[1]+r[2]*q[2]+r[3]*q[3]+r[4]*q[4]+r[5]*q[5], hc, tails[j])
		}
	case 7:
		head, q := id.head[i*7:stop*7], (*[7]uint64)(qs.qHead)
		//fex:hot
		for j, hc := range consts {
			if len(head) < 7 {
				break
			}
			r := head[:7]
			head = head[7:]
			m = h.push(m, r[0]*q[0]+r[1]*q[1]+r[2]*q[2]+r[3]*q[3]+r[4]*q[4]+r[5]*q[5]+r[6]*q[6], hc, tails[j])
		}
	default:
		return idx.headMaskGeneric(qs, i, stop, cut)
	}
	return survivors(m, stop-i)
}

// headMaskGeneric is headMask for any word count and layout.
func (idx *Index) headMaskGeneric(qs *queryState, i, stop int, cut float64) uint32 {
	id := idx.ints
	h := headTest{lay: id.lay, qConst: qs.qHeadConst, factor: qs.headFactor, barTail: qs.barTail, cut: cut}
	q := qs.qHead
	head := id.head[i*len(q) : stop*len(q)]
	consts := id.headConst[i:stop]
	tails := idx.barTail[i:stop]
	tails = tails[:len(consts)]
	var m uint32
	//fex:hot
	for j, hc := range consts {
		if len(head) < len(q) {
			break
		}
		acc := vec.DotPacked(head, q)
		head = head[len(q):]
		m = h.push(m, acc, hc, tails[j])
	}
	return survivors(m, stop-i)
}

// survivors turns the pruned bits push collected over n ≤ 32 rows into
// the mask headMask returns.
func survivors(m uint32, n int) uint32 {
	return ^(m >> (uint(32-n) & 31)) & (1<<uint(n) - 1)
}
