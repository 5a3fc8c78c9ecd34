//go:build !amd64

package vec

// No assembly off amd64: the plain-Go bodies are the kernels.

const best = Portable

// Collect is documented in headblock.go.
func (h *HeadTest) Collect(row, end int, cut float64, out *Survivors) (next, n int) {
	return h.collectPortable(row, end, cut, out)
}

func dotInt16(a, b []int16) int64 { return dotInt16Go(a, b) }

func dotTails(q []int16, tab []int8, rows []int32, out []int32) { dotTailsGo(q, tab, rows, out) }

func dotTail(q []int16, p []int8) int32 { return dotTailGo(q, p) }

func dot(a, b []float64) float64 { return dotGo(a, b) }

func gramBand(g, m *Matrix, alo, ahi int) { gramRows(g, m, 0, alo, ahi) }

func mulKernel(other *Matrix, scale []float64) func(out, m *Matrix) {
	ot := other.T()
	return func(out, m *Matrix) { mulRows(out, m, ot, scale, 0, m.Rows) }
}

func transformQuery(dst []float64, u *Matrix, q, scale []float64) { transformGo(dst, u, q, scale) }
