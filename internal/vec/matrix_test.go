package vec

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatal("Set/At round trip failed")
	}
	if got := m.Row(1); got[2] != 5 {
		t.Fatalf("Row(1) = %v", got)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone aliases source")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows produced %+v", m)
	}
	empty := FromRows(nil)
	if empty.Rows != 0 {
		t.Fatal("FromRows(nil) should be empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromRows with ragged rows did not panic")
		}
	}()
	FromRows([][]float64{{1}, {1, 2}})
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape %d×%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
	if !m.T().T().Equal(m, 0) {
		t.Fatal("double transpose != identity")
	}
}

func TestMulAndMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 0) {
		t.Fatalf("Mul = %+v, want %+v", got.Data, want.Data)
	}
	v := a.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestGramLower(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(17, 5)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	g := m.GramLower()
	want := m.T().Mul(m)
	if !g.Equal(want, 1e-10) {
		t.Fatal("GramLower != mᵀ·m")
	}
	// Symmetry.
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			if g.At(i, j) != g.At(j, i) {
				t.Fatalf("Gram not symmetric at %d,%d", i, j)
			}
		}
	}
}

func TestRowNormsAndAbsMax(t *testing.T) {
	m := FromRows([][]float64{{3, 4}, {0, -7}})
	norms := m.RowNorms()
	if norms[0] != 5 || norms[1] != 7 {
		t.Fatalf("RowNorms = %v", norms)
	}
	if m.AbsMax() != 7 {
		t.Fatalf("AbsMax = %v", m.AbsMax())
	}
	if m.MinValue() != -7 {
		t.Fatalf("MinValue = %v", m.MinValue())
	}
}

func TestSortRowsByNormDesc(t *testing.T) {
	in := FromRows([][]float64{{1, 0}, {5, 0}, {3, 0}})
	m, perm, norms := in.SortRowsByNormDesc()
	wantOrder := []float64{5, 3, 1}
	for i, w := range wantOrder {
		if m.At(i, 0) != w || norms[i] != w {
			t.Fatalf("row %d = %v (norm %v), want %v", i, m.At(i, 0), norms[i], w)
		}
	}
	if in.At(0, 0) != 1 || in.At(1, 0) != 5 {
		t.Fatalf("input reordered: %v", in.Data)
	}
	// perm maps new index -> original index.
	wantPerm := []int{1, 2, 0}
	for i := range perm {
		if perm[i] != wantPerm[i] {
			t.Fatalf("perm = %v, want %v", perm, wantPerm)
		}
	}
}

func TestSortRowsByNormDescStableOnTies(t *testing.T) {
	_, perm, _ := FromRows([][]float64{{1, 0}, {0, 1}, {2, 0}}).SortRowsByNormDesc()
	// Rows 0 and 1 tie; stability keeps original relative order.
	if perm[1] != 0 || perm[2] != 1 {
		t.Fatalf("unstable tie handling: perm = %v", perm)
	}
}

func TestSortRowsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	orig := NewMatrix(50, 4)
	for i := range orig.Data {
		orig.Data[i] = rng.NormFloat64()
	}
	m, perm, norms := orig.SortRowsByNormDesc()
	for i := 1; i < m.Rows; i++ {
		if norms[i] > norms[i-1]+1e-12 {
			t.Fatalf("norms not descending at %d: %v > %v", i, norms[i], norms[i-1])
		}
	}
	seen := make(map[int]bool)
	for newIdx, origIdx := range perm {
		if seen[origIdx] {
			t.Fatalf("perm not a permutation: %d repeated", origIdx)
		}
		seen[origIdx] = true
		for j := 0; j < m.Cols; j++ {
			if m.At(newIdx, j) != orig.At(origIdx, j) {
				t.Fatalf("row content mismatch at new=%d orig=%d", newIdx, origIdx)
			}
		}
	}
}

func TestEqualTolerance(t *testing.T) {
	a := FromRows([][]float64{{1}})
	b := FromRows([][]float64{{1 + 1e-12}})
	if !a.Equal(b, 1e-10) {
		t.Fatal("Equal should accept within tolerance")
	}
	if a.Equal(b, 0) {
		t.Fatal("Equal with zero tolerance should reject")
	}
	c := NewMatrix(1, 2)
	if a.Equal(c, math.Inf(1)) {
		t.Fatal("Equal should reject shape mismatch")
	}
}
