package vec

// useAVX2 selects the assembly bodies of kernels_amd64.s. It is read from
// the processor once, at init; tests clear it through SetPortable to run
// the same suite on the plain-Go bodies.
var useAVX2 = detectAVX2()

// SetPortable makes BlockRun, DotInt16 and DotTail run their plain-Go bodies (true)
// or the bodies the processor allows, and reports the setting it replaced:
// how tests here and in internal/core run once per body, no kernel running.
func SetPortable(on bool) (was bool) {
	was = !useAVX2
	useAVX2 = !on && detectAVX2()
	return was
}

// detectAVX2 reports whether AVX2 instructions may be executed: the CPU
// has them (leaf 7 EBX bit 5) and AVX (leaf 1 ECX bit 28), and the OS has
// enabled XGETBV (OSXSAVE, leaf 1 ECX bit 27) and saves both the XMM and
// the YMM halves of the registers across context switches (XCR0 bits 1
// and 2). internal/cpu has the same answer but cannot be imported.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// BlockRun is documented in headblock.go.
func (h *HeadTest) BlockRun(row, end int, cut float64, iu *[HeadBlockRows]int32) (at int, pruned uint32) {
	if !useAVX2 {
		return h.BlockRunPortable(row, end, cut, iu)
	}
	h.checkRun(row, end)
	if row >= end {
		return end, allPruned
	}
	return headBlockRunAVX2(h, row, end, cut, iu)
}

// headBlockRunAVX2 is BlockRunPortable over 16 int32 lanes for row < end: it
// reads each block of h.tab and h.tails until it stops, unchecked.
//
//go:noescape
func headBlockRunAVX2(h *HeadTest, row, end int, cut float64, iu *[HeadBlockRows]int32) (at int, pruned uint32)

func dotInt16(a, b []int16) int64 {
	if !useAVX2 || len(a) < 16 {
		return dotInt16Go(a, b)
	}
	n := len(a) &^ 7
	s := dotInt16AVX2(a[:n], b[:n])
	for i := n; i < len(a); i++ {
		s += int64(a[i]) * int64(b[i])
	}
	return s
}

// dotInt16AVX2 is dotInt16Go for len(a) = len(b) a multiple of 8.
//
//go:noescape
func dotInt16AVX2(a, b []int16) int64

func dotTail(q []int16, p []int8) int64 {
	if !useAVX2 || len(p) < 16 {
		return dotTailGo(q, p)
	}
	n := len(p) &^ 7
	s := dotTailAVX2(q[:n], p[:n])
	for i := n; i < len(p); i++ {
		s += int64(q[i]) * int64(p[i])
	}
	return s
}

// dotTailAVX2 is dotTailGo for len(q) = len(p) a multiple of 8.
//
//go:noescape
func dotTailAVX2(q []int16, p []int8) int64
