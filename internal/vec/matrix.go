package vec

import (
	"fmt"
	"math"
	"slices"
)

// Matrix is a dense row-major matrix. In this repository rows are vectors:
// the paper's item matrix P (d×n, items as columns) is stored here as an
// n×d Matrix whose i-th row is the factor vector of item i. Row-major
// storage makes the sequential scan at the heart of FEXIPRO walk memory
// in order.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vec: NewMatrix with negative dims %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the
// data. It panics if the rows have inconsistent lengths.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("vec: FromRows row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns row i as a slice aliasing the matrix storage. Scan
// kernels call it once per item, so it must stay inlinable.
//
//fex:inline
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Slice returns a view of rows [lo, hi) sharing the underlying storage.
// Mutating the view mutates m. It panics if the range is out of bounds.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("vec: Slice [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// T returns a newly allocated transpose.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// MulVec returns m · x (treating rows as the output dimension).
// It panics if len(x) != m.Cols.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("vec: MulVec dim mismatch: %d cols vs %d", m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// Mul returns m · other. It panics if m.Cols != other.Rows.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	return m.MulScaled(other, nil)
}

// MulScaled returns m · other with column j of the product multiplied by
// scale[j] (nil: unscaled) — the V₁ = Pᵀ·U·Σ⁻¹ step of the thin SVD in
// one pass over m. Entry (i, j) is Σ_k m[i][k]·other[k][j] accumulated
// from zero in increasing k and rounded after every product and every
// sum, then scaled, whatever the row count and GOMAXPROCS: the rows are
// shared out by ForRows and each one is computed independently. It
// panics if m.Cols != other.Rows or len(scale) != other.Cols.
func (m *Matrix) MulScaled(other *Matrix, scale []float64) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("vec: Mul dim mismatch: %d×%d by %d×%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	if scale != nil && len(scale) != other.Cols {
		panic(fmt.Sprintf("vec: MulScaled has %d scales for %d columns", len(scale), other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	if m.Cols > 0 && other.Cols > 0 {
		ot := other.T() // row j = column j of other, so every operand streams
		ForRows(m.Rows, func(lo, hi int) { mulRows(out, m, ot, scale, lo, hi) })
	}
	return out
}

// mulRows fills rows [lo, hi) of out = m·otᵀ·diag(scale) two rows and
// three columns per pass: six accumulators live in registers and share
// the loads of two m rows and three ot rows, and six independent sums are
// what it takes to keep the adder busy (one sum waits four cycles on its
// own previous addition). Each accumulator still sums its own products in
// increasing k, so the block shape leaves no trace in the result; a last
// block short of rows or columns names its final row or column again.
func mulRows(out, m, ot *Matrix, scale []float64, lo, hi int) {
	cols := ot.Rows
	for i := lo; i < hi; i += 2 {
		i1 := min(i+1, hi-1)
		a0, a1 := m.Row(i), m.Row(i1)
		a1 = a1[:len(a0)]
		d0, d1 := out.Row(i), out.Row(i1)
		for j := 0; j < cols; j += 3 {
			j1, j2 := min(j+1, cols-1), min(j+2, cols-1)
			b0, b1, b2 := ot.Row(j), ot.Row(j1), ot.Row(j2)
			b0, b1, b2 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)]
			var s00, s01, s02, s10, s11, s12 float64
			//fex:hot
			for k, x0 := range a0 {
				x1, y0, y1, y2 := a1[k], b0[k], b1[k], b2[k]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
			}
			if scale != nil {
				c0, c1, c2 := scale[j], scale[j1], scale[j2]
				s00, s01, s02 = s00*c0, s01*c1, s02*c2
				s10, s11, s12 = s10*c0, s11*c1, s12*c2
			}
			d0[j], d0[j1], d0[j2] = s00, s01, s02
			d1[j], d1[j1], d1[j2] = s10, s11, s12
		}
	}
}

// GramLower returns the Cols×Cols Gram matrix mᵀ·m (the matrix of column
// inner products). Used by the thin SVD: if the rows of m are the item
// vectors (m is Pᵀ in paper terms), mᵀ·m is P·Pᵀ, the small d×d Gram.
//
// Entry (a, b) is Σ_i m[i][a]·m[i][b] accumulated from zero in increasing
// i, whatever GOMAXPROCS: the work is split by OUTPUT row a — balanced by
// the area of the upper triangle each worker owns — never by input row,
// so no entry is ever the sum of two partial sums.
func (m *Matrix) GramLower() *Matrix {
	d := m.Cols
	g := NewMatrix(d, d)
	// Output row a holds d−a entries; cuts[k] is the first row at which
	// the rows before it cover k/p of the triangle's d(d+1)/2.
	p := max(1, min(RowWorkers(m.Rows), d))
	cuts := make([]int, p+1)
	area, k := 0, 1
	for a := 0; a < d && k < p; a++ {
		area += d - a
		for k < p && area*2*p >= k*d*(d+1) {
			cuts[k] = a + 1
			k++
		}
	}
	cuts[p] = d
	forRanges(cuts, func(lo, hi int) { gramRows(g, m, lo, hi) })
	// mirror the upper triangle into the lower one
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			g.Set(b, a, g.At(a, b))
		}
	}
	return g
}

// gramRows accumulates rows [alo, ahi) of the upper triangle of g = mᵀ·m,
// four rows of m per pass: g[a][b] is loaded once, takes the four
// products in row order, and is stored once.
func gramRows(g, m *Matrix, alo, ahi int) {
	d := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
		for a := alo; a < ahi; a++ {
			ga := g.Data[a*d+a : (a+1)*d]
			t0, t1, t2, t3 := r0[a:], r1[a:], r2[a:], r3[a:]
			t0, t1, t2, t3 = t0[:len(ga)], t1[:len(ga)], t2[:len(ga)], t3[:len(ga)]
			v0, v1, v2, v3 := t0[0], t1[0], t2[0], t3[0]
			//fex:hot
			for b, x := range ga {
				x += v0 * t0[b]
				x += v1 * t1[b]
				x += v2 * t2[b]
				x += v3 * t3[b]
				ga[b] = x
			}
		}
	}
	for ; i < m.Rows; i++ {
		row := m.Row(i)
		for a := alo; a < ahi; a++ {
			ga := g.Data[a*d+a : (a+1)*d]
			t := row[a:]
			t = t[:len(ga)]
			v := t[0]
			for b := range ga {
				ga[b] += v * t[b]
			}
		}
	}
}

// RowNorms returns the Euclidean norm of every row.
func (m *Matrix) RowNorms() []float64 {
	out := make([]float64, m.Rows)
	ForRows(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Norm(m.Row(i))
		}
	})
	return out
}

// AbsMax returns the maximum absolute entry of the matrix (0 if empty).
func (m *Matrix) AbsMax() float64 { return AbsMax(m.Data) }

// MinValue returns the minimum entry of the matrix.
// It panics on an empty matrix.
func (m *Matrix) MinValue() float64 { return Min(m.Data) }

// Equal reports whether m and other have identical shape and entries
// within absolute tolerance tol.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// SortRowsByNormDesc returns a copy of m with its rows in order of
// decreasing Euclidean norm, perm where perm[newIndex] = originalIndex,
// and the norms of the sorted rows. Rows of equal norm keep their
// original order, so the result is deterministic. m is not modified.
func (m *Matrix) SortRowsByNormDesc() (sorted *Matrix, perm []int, norms []float64) {
	return m.SortRowsByKeyDesc(m.RowNorms())
}

// SortRowsByKeyDesc is SortRowsByNormDesc for a caller that already
// holds one sort key per row (keys[i] for row i, typically the norms from
// its own validating pass); the third result is the keys in sorted order.
// The sort moves (key, row index) pairs only, and every row is then
// copied once.
func (m *Matrix) SortRowsByKeyDesc(keys []float64) (sorted *Matrix, perm []int, sortedKeys []float64) {
	if len(keys) != m.Rows {
		panic(fmt.Sprintf("vec: SortRowsByKeyDesc has %d keys for %d rows", len(keys), m.Rows))
	}
	// Decreasing key, then increasing row: a total order, so any correct
	// sort returns the one permutation a stable sort by key would, and
	// pdqsort over (key, row) pairs does it in half the time of
	// SortStableFunc over row indices that look their keys up.
	type keyed struct {
		key float64
		row int
	}
	order := make([]keyed, m.Rows)
	for i, k := range keys {
		order[i] = keyed{k, i}
	}
	slices.SortFunc(order, func(a, b keyed) int {
		switch {
		case a.key > b.key:
			return -1
		case a.key < b.key:
			return 1
		}
		return a.row - b.row
	})
	perm = make([]int, m.Rows)
	sorted = NewMatrix(m.Rows, m.Cols)
	sortedKeys = make([]float64, m.Rows)
	ForRows(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			perm[i], sortedKeys[i] = order[i].row, order[i].key
			copy(sorted.Row(i), m.Row(perm[i]))
		}
	})
	return sorted, perm, sortedKeys
}
