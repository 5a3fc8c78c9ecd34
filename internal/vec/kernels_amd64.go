package vec

// best is the most capable body this processor runs (body.go).
var best = detect()

// detect reads the best body from the processor. AVX2 needs AVX2 and the
// BMI1/BMI2 bit operations (leaf 7 EBX bits 5, 3 and 8) and AVX (leaf 1
// ECX bit 28), with XGETBV enabled (OSXSAVE, leaf 1 ECX bit 27) and the
// OS saving the XMM and YMM halves of the registers (XCR0 bits 1 and 2).
// AVX512VNNI needs AVX512F, DQ, BW and VL (leaf 7 EBX bits 16, 17, 30 and
// 31) and VNNI (leaf 7 ECX bit 11), with the opmask and both ZMM halves
// saved too (XCR0 bits 5–7: 0xE6 in all). internal/cpu has the same
// answers but cannot be imported.
func detect() Body {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return Portable
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return Portable
	}
	xcr0, _ := xgetbv()
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const avx2 = 1<<5 | 1<<3 | 1<<8 // AVX2, BMI1, BMI2
	if xcr0&6 != 6 || ebx7&avx2 != avx2 {
		return Portable
	}
	const avx512 = 1<<16 | 1<<17 | 1<<30 | 1<<31
	const vnni = 1 << 11
	if xcr0&0xE6 == 0xE6 && ebx7&avx512 == avx512 && ecx7&vnni != 0 {
		return AVX512VNNI
	}
	return AVX2
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// Collect is documented in headblock.go.
func (h *HeadTest) Collect(row, end int, cut float64, out *Survivors) (next, n int) {
	if active == Portable {
		return h.collectPortable(row, end, cut, out)
	}
	h.checkRun(row, end)
	if row >= end {
		return row, 0
	}
	if active == AVX512VNNI && h.int8Q {
		return collectVNNI(h, row, end, cut, out)
	}
	return collectAVX2(h, row, end, cut, out)
}

// collectAVX2 is collectPortable over 16 int32 lanes for row < end: it
// reads each block of h.tab and h.tails until it stops, unchecked.
//
//go:noescape
func collectAVX2(h *HeadTest, row, end int, cut float64, out *Survivors) (next, n int)

// collectVNNI is collectAVX2 for a query whose floors fit an int8.
//
//go:noescape
func collectVNNI(h *HeadTest, row, end int, cut float64, out *Survivors) (next, n int)

func dotInt16(a, b []int16) int64 {
	if active == Portable || len(a) < 16 {
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

func dotTails(q []int16, tab []int8, rows []int32, out []int32) {
	if active == Portable || len(q) < 16 {
		dotTailsGo(q, tab, rows, out)
		return
	}
	dotTailsAVX2(q, tab, rows, out)
}

// dotTailsAVX2 is dotTailsGo for len(q) ≥ 16, len(out) = len(rows) and
// every row inside tab.
//
//go:noescape
func dotTailsAVX2(q []int16, tab []int8, rows []int32, out []int32)

func dotTail(q []int16, p []int8) int32 {
	if active == Portable || len(q) < 16 {
		return dotTailGo(q, p)
	}
	return dotTailAVX2(q, p)
}

// dotTailAVX2 is dotTailGo for len(q) = len(p) ≥ 16.
//
//go:noescape
func dotTailAVX2(q []int16, p []int8) int32

func dot(a, b []float64) float64 {
	if active == Portable {
		return dotGo(a, b)
	}
	return dotAVX2(a, b)
}

// dotAVX2 is dotGo for len(a) = len(b).
//
//go:noescape
func dotAVX2(a, b []float64) float64

// gramBand is gramRows over all of m: on AVX2 the assembly takes the
// 4-row blocks and gramRows the Rows mod 4 rows left.
func gramBand(g, m *Matrix, alo, ahi int) {
	i := 0
	if active != Portable && alo < ahi {
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
	if active == Portable {
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

func transformQuery(dst []float64, u *Matrix, q, scale []float64) {
	if active == Portable || len(dst) == 0 || len(q) == 0 {
		transformGo(dst, u, q, scale)
		return
	}
	transformAVX2(dst, u.Data, q, scale, u.Cols)
}

// transformAVX2 is transformGo for len(dst) ≥ 1 and len(q) ≥ 1, u's rows
// stride values apart.
//
//go:noescape
func transformAVX2(dst, u, q, scale []float64, stride int)
