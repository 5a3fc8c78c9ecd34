package vec

// useAVX2 selects the assembly bodies of kernels_amd64.s. It is read from
// the processor once, at init; tests clear it through SetPortable to run
// the same suite on the plain-Go bodies.
var useAVX2 = detectAVX2()

// SetPortable makes BlockRun, DotInt16, DotTail and the build's GramLower
// and MulScaled run their plain-Go bodies (true) or the bodies the
// processor allows, and reports the setting it replaced: how tests here
// and in internal/core run once per body, no kernel running.
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

// gramBand is gramRows over all of m: on AVX2 the assembly takes the
// 4-row blocks and gramRows the Rows mod 4 rows left.
func gramBand(g, m *Matrix, alo, ahi int) {
	i := 0
	if useAVX2 && alo < ahi {
		for i+4 <= m.Rows {
			blocks := min((m.Rows-i)/4, kernelChunk)
			gramBlocksAVX2(g.Data, m.Data[i*m.Cols:], blocks, m.Cols, alo, ahi)
			i += 4 * blocks
		}
	}
	gramRows(g, m, i, alo, ahi)
}

// gramBlocksAVX2 is gramRows's 4-row pass over the first blocks·4 rows of
// m (Cols = d), output rows [alo, ahi) of the d×d g, for alo < ahi.
//
//go:noescape
func gramBlocksAVX2(g, m []float64, blocks, d, alo, ahi int)

// mulKernel returns the body MulScaled and MulScaledInPlace run on
// each part of m: on AVX2 the assembly over the part's 4-row blocks and
// mulRows for the Rows mod 4 rows left, mulRows alone otherwise.
func mulKernel(other *Matrix, scale []float64) func(out, m *Matrix) {
	ot := other.T()
	if !useAVX2 {
		return func(out, m *Matrix) { mulRows(out, m, ot, scale, 0, m.Rows) }
	}
	panels, padded, mask := packPanels(other, scale)
	return func(out, m *Matrix) {
		i := 0
		for i+4 <= m.Rows {
			blocks := min((m.Rows-i)/4, kernelChunk)
			mulBlocksAVX2(out.Data[i*out.Cols:], m.Data[i*m.Cols:], panels, padded, &mask, blocks, m.Cols, out.Cols)
			i += 4 * blocks
		}
		mulRows(out, m, ot, scale, i, m.Rows)
	}
}

// packPanels lays other out for mulBlocksAVX2 in panels of 8 columns,
// zero past the last: panel p holds other[k][8p…8p+7] for every k in
// order. scale (nil stays nil) is zero-padded to the same width, and
// mask has a lane set for each of the Cols mod 8 real columns of a last,
// short panel.
func packPanels(other *Matrix, scale []float64) (panels, padded []float64, mask [8]int64) {
	width := (other.Cols + 7) &^ 7
	panels = make([]float64, other.Rows*width)
	for j := 0; j < other.Cols; j += 8 {
		for k := 0; k < other.Rows; k++ {
			copy(panels[(j*other.Rows + 8*k):][:8], other.Row(k)[j:min(j+8, other.Cols)])
		}
	}
	if scale != nil {
		padded = make([]float64, width)
		copy(padded, scale)
	}
	for j := range other.Cols % 8 {
		mask[j] = -1
	}
	return panels, padded, mask
}

// mulBlocksAVX2 is mulRows over the first blocks·4 rows of m (Cols =
// inner) and out (Cols = cols), reading other from packPanels.
//
//go:noescape
func mulBlocksAVX2(out, m, panels, scale []float64, mask *[8]int64, blocks, inner, cols int)
