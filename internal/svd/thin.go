package svd

import (
	"errors"
	"fmt"
	"math"

	"fexipro/internal/vec"
)

// Thin holds a thin SVD P = U·Σ·V₁ᵀ of the paper's d×n item matrix P.
// Items is the n×d matrix whose ROWS are the item vectors (i.e. Pᵀ), so
// in terms of Items: Items = V₁·Σ·Uᵀ.
type Thin struct {
	// U is d×d with orthonormal columns (left singular vectors of P).
	U *vec.Matrix
	// Sigma holds the singular values σ₁ ≥ σ₂ ≥ … ≥ σ_d ≥ 0.
	Sigma []float64
	// V1 is n×d; row i is the SVD-transformed item vector p̄ᵢ
	// (Theorem 1: P̄ = V₁ᵀ, so the columns of P̄ are the rows of V₁).
	V1 *vec.Matrix
}

// Rank returns the number of singular values greater than tol·σ₁.
func (t *Thin) Rank(tol float64) int {
	if len(t.Sigma) == 0 || t.Sigma[0] == 0 {
		return 0
	}
	r := 0
	for _, s := range t.Sigma {
		if s > tol*t.Sigma[0] {
			r++
		}
	}
	return r
}

// TransformQuery maps a query q from the original space into the SVD
// space: q̄ = Σ_d·Uᵀ·q (Theorem 1). The result has the same inner
// products with the rows of V1 as q has with the original item vectors.
func (t *Thin) TransformQuery(q []float64) []float64 {
	out := make([]float64, t.U.Rows)
	t.TransformQueryInto(out, q)
	return out
}

// TransformQueryInto is TransformQuery into dst, which must hold d values
// and not overlap q: the per-query form, with no allocation.
func (t *Thin) TransformQueryInto(dst, q []float64) {
	d := t.U.Rows
	if len(q) != d || len(dst) != d {
		panic(fmt.Sprintf("svd: TransformQuery dim mismatch: %d into %d vs %d", len(q), len(dst), d))
	}
	// dst[j] = σ_j * Σ_i U[i][j]·q[i]
	vec.TransformQuery(dst, t.U, q, t.Sigma)
}

// Decompose computes the thin SVD of the item collection. items is the
// n×d matrix whose rows are item vectors (Pᵀ in paper notation); it is
// not modified.
//
// Singular values smaller than rankTol·σ₁ are treated as zero and their
// V₁ columns zeroed: those directions carry none of P, so inner products
// are preserved exactly (Theorem 1) while avoiding division blow-ups on
// rank-deficient inputs. Pass rankTol ≤ 0 for the default 1e-12. When a
// zeroed direction does carry part of some item — one item ≳ 10¹³ × the
// rest pushes every other direction under the tolerance — the transform
// would be lossy and Decompose returns an ErrIllConditioned-wrapping
// error instead.
func Decompose(items *vec.Matrix, rankTol float64) (*Thin, error) {
	t, inv, err := basis(items, rankTol)
	if err != nil {
		return nil, err
	}
	t.V1 = items.MulScaled(t.U, inv)
	return t, nil
}

// DecomposeInPlace is Decompose for a caller that has no further use for
// items: it writes V₁ over items, the same bits Decompose returns, and
// the result's V1 is items. The transform then needs no second n×d
// matrix. On an error items is left as it was.
func DecomposeInPlace(items *vec.Matrix, rankTol float64) (*Thin, error) {
	t, inv, err := basis(items, rankTol)
	if err != nil {
		return nil, err
	}
	items.MulScaledInPlace(t.U, inv)
	t.V1 = items
	return t, nil
}

// basis is the decomposition up to V₁: U, Σ with the dropped singular
// values zeroed, and the column scales Σ⁻¹ (0 for a dropped one) that
// take items·U to V₁.
func basis(items *vec.Matrix, rankTol float64) (t *Thin, inv []float64, err error) {
	if rankTol <= 0 {
		rankTol = 1e-12
	}
	d := items.Cols
	if d == 0 {
		return nil, nil, fmt.Errorf("svd: Decompose on zero-dimensional items")
	}

	// G = P·Pᵀ = Itemsᵀ·Items (d×d).
	g := items.GramLower()
	lambda, u, err := SymEigen(g)
	if err != nil {
		return nil, nil, err
	}

	sigma := make([]float64, d)
	for i, l := range lambda {
		if l < 0 {
			l = 0 // clip tiny negative rounding noise of PSD matrices
		}
		sigma[i] = math.Sqrt(l)
	}

	// V1 = Pᵀ·U·Σ⁻¹ = Items·U·Σ⁻¹ (n×d); zero columns for null σ.
	inv = make([]float64, d)
	var zeroed []int
	for j := 0; j < d; j++ {
		if sigma[0] > 0 && sigma[j] > rankTol*sigma[0] {
			inv[j] = 1 / sigma[j]
		} else {
			sigma[j] = 0
			inv[j] = 0
			zeroed = append(zeroed, j)
		}
	}
	if err := checkNullDirections(items, u, zeroed); err != nil {
		return nil, nil, err
	}
	return &Thin{U: u, Sigma: sigma}, inv, nil
}

// ErrIllConditioned is wrapped by Decompose's error when the item matrix
// spans more orders of magnitude than the decomposition resolves, so that
// dropping its "null" directions would change inner products.
var ErrIllConditioned = errors.New("item matrix is too ill-conditioned for a lossless SVD transform")

// nullMassTol is how much of an item, relative to its length, may lie
// along a zeroed direction. Only zeroed directions can lose anything (for
// a kept one σⱼ cancels between p̄ⱼ and q̄ⱼ whatever its accuracy).
// Measured max over rows of |pᵀuⱼ|/‖p‖: ≤ 4e-15 on genuinely
// rank-deficient input (low-rank products, duplicate, combined and zero
// columns, n < d, up to 5000×50 and column scales to 1e9), ≥ 0.86 on the
// one-huge-item catalogs that used to rank wrongly (50×8 standard normal
// with one coordinate 1e13 … 1e100). 1e-9 sits five orders above the
// first and is the relative slack every pruning test already allows.
const nullMassTol = 1e-9

// checkNullDirections returns an ErrIllConditioned-wrapping error naming
// the first item with more than nullMassTol of its length along one of
// the zeroed columns of u. O(n·d) per zeroed column, nothing on a
// full-rank matrix.
func checkNullDirections(items, u *vec.Matrix, zeroed []int) error {
	if len(zeroed) == 0 {
		return nil
	}
	limits := make([]float64, items.Rows)
	for i := range limits {
		limits[i] = nullMassTol * vec.Norm(items.Row(i))
	}
	col := make([]float64, u.Rows)
	for _, j := range zeroed {
		for k := range col {
			col[k] = u.At(k, j)
		}
		for i, limit := range limits {
			if mass := math.Abs(vec.Dot(items.Row(i), col)); mass > limit {
				return fmt.Errorf("svd: row %d has %.3g of its length %.3g along singular direction %d, which the rank tolerance drops: %w",
					i, mass, limit/nullMassTol, j, ErrIllConditioned)
			}
		}
	}
	return nil
}
