//go:build !amd64

package vec

// No assembly off amd64: the plain-Go bodies are the kernels.

// SetPortable is documented in kernels_amd64.go; here there is one body.
func SetPortable(bool) (was bool) { return true }

// BlockRun is documented in headblock.go.
func (h *HeadTest) BlockRun(row, end int, cut float64, iu *[HeadBlockRows]int32) (at int, pruned uint32) {
	return h.BlockRunPortable(row, end, cut, iu)
}

func dotInt16(a, b []int16) int64 { return dotInt16Go(a, b) }

func dotTail(q []int16, p []int8) int64 { return dotTailGo(q, p) }

func gramBand(g, m *Matrix, alo, ahi int) { gramRows(g, m, 0, alo, ahi) }

func mulKernel(other *Matrix, scale []float64) func(out, m *Matrix) {
	ot := other.T()
	return func(out, m *Matrix) { mulRows(out, m, ot, scale, 0, m.Rows) }
}
