package svd

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fexipro/internal/vec"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *vec.Matrix {
	m := vec.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// reconstruct rebuilds the n×d item matrix V₁·Σ·Uᵀ, to validate the
// factorization.
func reconstruct(t *Thin) *vec.Matrix {
	n := t.V1.Rows
	d := t.U.Rows
	out := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		vrow := t.V1.Row(i)
		dst := out.Row(i)
		for j := 0; j < d; j++ {
			sv := vrow[j] * t.Sigma[j]
			if sv == 0 {
				continue
			}
			// add sv * U[:,j]ᵀ, i.e. dst[k] += sv·U[k][j]
			for k := 0; k < d; k++ {
				dst[k] += sv * t.U.At(k, j)
			}
		}
	}
	return out
}

func TestSymEigenDiagonal(t *testing.T) {
	g := vec.FromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := SymEigen(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// Columns are unit eigenvectors aligned with the axes.
	if math.Abs(math.Abs(vecs.At(0, 0))-1) > 1e-12 {
		t.Fatalf("eigenvector matrix = %+v", vecs.Data)
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	g := vec.FromRows([][]float64{{2, 1}, {1, 2}})
	vals, _, err := SymEigen(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v, want [3 1]", vals)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 10, 25} {
		a := randomMatrix(rng, n, n)
		// Symmetrize.
		g := vec.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, (a.At(i, j)+a.At(j, i))/2)
			}
		}
		vals, vecs, err := SymEigen(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("n=%d: eigenvalues not descending: %v", n, vals)
			}
		}
		// Orthonormal columns.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var dot float64
				for r := 0; r < n; r++ {
					dot += vecs.At(r, i) * vecs.At(r, j)
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-9 {
					t.Fatalf("n=%d: column %d·%d = %v, want %v", n, i, j, dot, want)
				}
			}
		}
		// G·v = λ·v.
		for j := 0; j < n; j++ {
			col := make([]float64, n)
			for r := 0; r < n; r++ {
				col[r] = vecs.At(r, j)
			}
			gv := make([]float64, n)
			for r := range gv {
				gv[r] = vec.Dot(g.Row(r), col)
			}
			for r := 0; r < n; r++ {
				if math.Abs(gv[r]-vals[j]*col[r]) > 1e-8*(1+math.Abs(vals[j])) {
					t.Fatalf("n=%d: G·v != λv for eigenpair %d", n, j)
				}
			}
		}
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, _, err := SymEigen(vec.NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

// TestSymEigenRejectsNonFinite: a NaN or infinite entry — what the Gram
// matrix of an overflowing catalog holds — is an error at every size, not
// a "converged" decomposition with NaN eigenvalues.
func TestSymEigenRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{1, 2, 5} {
			g := identity(n)
			g.Set(n-1, 0, bad)
			g.Set(0, n-1, bad)
			if vals, _, err := SymEigen(g); err == nil {
				t.Errorf("n = %d with %v: eigenvalues %v and no error", n, bad, vals)
			}
		}
	}
	items := vec.FromRows([][]float64{{1, 2}, {1e200, 1}, {3, 4}})
	if thin, err := Decompose(items, 0); err == nil {
		t.Errorf("Decompose of an overflowing Gram: σ = %v and no error", thin.Sigma)
	}
}

func TestDecomposeReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, shape := range []struct{ n, d int }{{1, 1}, {5, 3}, {40, 10}, {200, 25}, {3, 8}} {
		items := randomMatrix(rng, shape.n, shape.d)
		thin, err := Decompose(items, 0)
		if err != nil {
			t.Fatalf("%dx%d: %v", shape.n, shape.d, err)
		}
		rec := reconstruct(thin)
		if !rec.Equal(items, 1e-8) {
			t.Fatalf("%dx%d: reconstruction mismatch", shape.n, shape.d)
		}
		// Singular values descending and nonnegative.
		for i, s := range thin.Sigma {
			if s < 0 {
				t.Fatalf("negative σ_%d = %v", i, s)
			}
			if i > 0 && s > thin.Sigma[i-1]+1e-12 {
				t.Fatalf("σ not descending: %v", thin.Sigma)
			}
		}
	}
}

// Theorem 1: qᵀp = q̄ᵀp̄ for every item, where q̄ = Σ·Uᵀ·q and p̄ is the
// matching row of V₁.
func TestTheorem1InnerProductPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ n, d int }{{30, 5}, {100, 20}, {64, 50}} {
		items := randomMatrix(rng, shape.n, shape.d)
		thin, err := Decompose(items, 0)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, shape.d)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			qbar := thin.TransformQuery(q)
			for i := 0; i < shape.n; i++ {
				orig := vec.Dot(q, items.Row(i))
				trans := vec.Dot(qbar, thin.V1.Row(i))
				if math.Abs(orig-trans) > 1e-8*(1+math.Abs(orig)) {
					t.Fatalf("shape %+v item %d: qᵀp=%v but q̄ᵀp̄=%v", shape, i, orig, trans)
				}
			}
		}
	}
}

// The transformation must skew the query: with a decaying spectrum, the
// leading q̄ coordinates should carry most of the energy.
func TestTransformSkewsQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, d := 500, 20
	items := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			items.Set(i, j, rng.NormFloat64()*math.Exp(-0.3*float64(j)))
		}
	}
	thin, err := Decompose(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	var headEnergy, totalEnergy float64
	for trial := 0; trial < 50; trial++ {
		q := make([]float64, d)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		qbar := thin.TransformQuery(q)
		for j, v := range qbar {
			if j < d/4 {
				headEnergy += v * v
			}
			totalEnergy += v * v
		}
	}
	if headEnergy < 0.5*totalEnergy {
		t.Fatalf("expected first quarter of q̄ to carry ≥50%% of energy, got %.1f%%",
			100*headEnergy/totalEnergy)
	}
}

func TestRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, d, r := 60, 10, 3
	base := randomMatrix(rng, r, d)
	items := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for b := 0; b < r; b++ {
			w := rng.NormFloat64()
			for j := 0; j < d; j++ {
				items.Data[i*d+j] += w * base.At(b, j)
			}
		}
	}
	thin, err := Decompose(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Gram-based SVD halves the accurate digits of tiny singular values
	// (σ = √λ), so rank detection needs a tolerance around √machine-eps.
	if got := thin.Rank(1e-6); got != r {
		t.Fatalf("Rank = %d, want %d (σ = %v)", got, r, thin.Sigma)
	}
	if !reconstruct(thin).Equal(items, 1e-8) {
		t.Fatal("rank-deficient reconstruction mismatch")
	}
	// Inner products still preserved.
	q := make([]float64, d)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	qbar := thin.TransformQuery(q)
	for i := 0; i < n; i++ {
		orig := vec.Dot(q, items.Row(i))
		trans := vec.Dot(qbar, thin.V1.Row(i))
		if math.Abs(orig-trans) > 1e-8*(1+math.Abs(orig)) {
			t.Fatalf("item %d: %v vs %v", i, orig, trans)
		}
	}
}

func TestZeroMatrix(t *testing.T) {
	items := vec.NewMatrix(10, 4)
	thin, err := Decompose(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	if thin.Rank(1e-12) != 0 {
		t.Fatalf("zero matrix rank = %d", thin.Rank(1e-12))
	}
	q := []float64{1, 2, 3, 4}
	qbar := thin.TransformQuery(q)
	for _, v := range qbar {
		if v != 0 {
			t.Fatalf("q̄ = %v, want all zeros", qbar)
		}
	}
}

func TestDecomposeRejectsZeroDim(t *testing.T) {
	if _, err := Decompose(vec.NewMatrix(5, 0), 0); err == nil {
		t.Fatal("expected error for zero-dimensional items")
	}
}

func TestTransformQueryPanicsOnDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	thin, err := Decompose(randomMatrix(rng, 10, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	thin.TransformQuery([]float64{1, 2})
}

// TestTransformQueryIntoBitIdentical: the unrolled TransformQueryInto gives
// every q̄_j the bits of the one-column-at-a-time loop it replaced — the
// same products added in the same order — over 1 000 queries at dimensions
// on both sides of the unroll width, zero coordinates (skipped rows)
// included.
func TestTransformQueryIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, d := range []int{1, 3, 4, 50, 51} {
		thin, err := Decompose(randomMatrix(rng, 3*d+5, d), 0)
		if err != nil {
			t.Fatal(err)
		}
		q, got, want := make([]float64, d), make([]float64, d), make([]float64, d)
		for trial := 0; trial < 1000; trial++ {
			for i := range q {
				if q[i] = rng.NormFloat64(); rng.Intn(8) == 0 {
					q[i] = 0
				}
			}
			clear(want)
			for i, qi := range q {
				if qi == 0 {
					continue
				}
				for j := 0; j < d; j++ {
					want[j] += thin.U.Row(i)[j] * qi
				}
			}
			for j := range want {
				want[j] *= thin.Sigma[j]
			}
			thin.TransformQueryInto(got, q)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("d=%d query %d: q̄[%d] = %v, the plain loop gives %v", d, trial, j, got[j], want[j])
				}
			}
		}
	}
}

// TestDecomposeRefusesToDropLiveDirections: zeroing σⱼ ≤ 1e-12·σ₁ is
// lossless only when nothing lives along uⱼ. With one coordinate of one
// item at 1e13, seven of eight directions fall under the tolerance while
// the other 49 items have most of their length in them; that is an
// ErrIllConditioned, and at 1e12 — every direction kept — still an exact
// decomposition. Rank-deficient input proper (TestRankDeficient, n < d in
// TestDecomposeReconstructs) has nothing along the zeroed directions and
// decomposes as before.
func TestDecomposeRefusesToDropLiveDirections(t *testing.T) {
	for _, c := range []struct {
		big float64
		ok  bool
	}{{1e6, true}, {1e12, true}, {1e13, false}, {1e20, false}, {1e100, false}} {
		items := randomMatrix(rand.New(rand.NewSource(1)), 50, 8)
		items.Row(7)[3] = c.big
		thin, err := Decompose(items, 0)
		if !c.ok {
			if !errors.Is(err, ErrIllConditioned) {
				t.Errorf("at %g: error %v (σ = %v), want ErrIllConditioned", c.big, err, thin)
			}
			continue
		}
		if err != nil {
			t.Fatalf("at %g: %v", c.big, err)
		}
		q := []float64{1, -1, 2, 0, 0.5, -3, 1, 1}
		qbar := thin.TransformQuery(q)
		for i := 0; i < items.Rows; i++ {
			want, got := vec.Dot(q, items.Row(i)), vec.Dot(qbar, thin.V1.Row(i))
			if math.Abs(want-got) > 1e-15*c.big*vec.Norm(q) {
				t.Fatalf("at %g item %d: qᵀp = %v, q̄ᵀp̄ = %v", c.big, i, want, got)
			}
		}
	}
}

// TestDecomposeInPlaceMatchesDecompose: Decompose leaves its input's bits
// alone, and DecomposeInPlace returns the same U, Σ and V₁ bits with V₁
// written over its input — or, when it refuses the input, leaves it
// alone too.
func TestDecomposeInPlaceMatchesDecompose(t *testing.T) {
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(3))
	illConditioned := randomMatrix(rng, 50, 8)
	illConditioned.Row(7)[3] = 1e20
	rankDeficient := randomMatrix(rng, 300, 6)
	for i := 0; i < rankDeficient.Rows; i++ {
		rankDeficient.Row(i)[5] = rankDeficient.Row(i)[0] // a duplicate column
	}
	for _, items := range []*vec.Matrix{randomMatrix(rng, 7, 3), randomMatrix(rng, 5000, 8), rankDeficient, illConditioned} {
		orig := items.Clone()
		want, wantErr := Decompose(items, 0)
		if !same(items.Data, orig.Data) {
			t.Fatalf("%d×%d: Decompose modified its input", items.Rows, items.Cols)
		}
		got, err := DecomposeInPlace(items, 0)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%d×%d: DecomposeInPlace error %v, Decompose error %v", items.Rows, items.Cols, err, wantErr)
		}
		if err != nil {
			if !same(items.Data, orig.Data) {
				t.Fatalf("%d×%d: DecomposeInPlace modified the input it refused", items.Rows, items.Cols)
			}
			continue
		}
		if got.V1 != items || !same(got.V1.Data, want.V1.Data) || !same(got.U.Data, want.U.Data) || !same(got.Sigma, want.Sigma) {
			t.Fatalf("%d×%d: DecomposeInPlace differs from Decompose, or its V₁ is not its input", items.Rows, items.Cols)
		}
	}
}
