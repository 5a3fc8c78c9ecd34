// Package svd implements the thin singular value decomposition used by
// FEXIPRO's SVD transformation (Section 3 of the paper).
//
// The item matrix P has shape d×n with d (tens to low hundreds) much
// smaller than n (up to millions). Only U (d×d), the singular values
// σ₁ ≥ … ≥ σ_d and V₁ (n×d) are needed, so instead of a full SVD we:
//
//  1. form the small Gram matrix G = P·Pᵀ (d×d, symmetric PSD),
//  2. diagonalize G = U Λ Uᵀ with a cyclic Jacobi eigensolver,
//  3. recover σᵢ = √λᵢ and V₁ = Pᵀ·U·Σ⁻¹.
//
// The total cost is O(n·d²) + O(d³), matching the "thin SVD" complexity
// the paper relies on.
package svd

import (
	"fmt"
	"math"
	"sort"

	"fexipro/internal/vec"
)

// jacobiMaxSweeps bounds the number of full cyclic sweeps. Jacobi
// converges quadratically; symmetric matrices of dimension ≤ a few
// hundred settle in well under 30 sweeps.
const jacobiMaxSweeps = 60

// SymEigen diagonalizes the symmetric matrix g, returning eigenvalues in
// descending order and a matrix whose COLUMNS are the matching
// orthonormal eigenvectors. g is not modified. A NaN or infinite entry
// in g is an error, never a decomposition.
//
// The implementation is the classical cyclic Jacobi rotation method:
// repeatedly zero the largest-magnitude off-diagonal entries with Givens
// rotations until the off-diagonal mass is negligible.
func SymEigen(g *vec.Matrix) (eigenvalues []float64, eigenvectors *vec.Matrix, err error) {
	n := g.Rows
	if g.Cols != n {
		return nil, nil, fmt.Errorf("svd: SymEigen requires a square matrix, got %d×%d", n, g.Cols)
	}
	for i, x := range g.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, nil, fmt.Errorf("svd: SymEigen input is not finite at row %d col %d", i/n, i%n)
		}
	}
	a := g.Clone()
	v := identity(n)

	if n <= 1 {
		vals := make([]float64, n)
		if n == 1 {
			vals[0] = a.At(0, 0)
		}
		return vals, v, nil
	}

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		off := offDiagNorm(a)
		if off <= 1e-14*(1+diagNorm(a)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := a.At(p, p)
				aqq := a.At(q, q)
				// rotation angle zeroing a[p][q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e154 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				applyJacobiRotation(a, v, p, q, c, s)
			}
		}
	}

	// Negated so that a NaN norm (entries that overflowed mid-rotation)
	// fails here instead of passing as converged.
	off := offDiagNorm(a)
	if !(off <= 1e-8*(1+diagNorm(a))) {
		return nil, nil, fmt.Errorf("svd: Jacobi failed to converge (off-diagonal norm %g)", off)
	}

	// Extract and sort eigenpairs by descending eigenvalue.
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = a.At(i, i)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return vals[order[i]] > vals[order[j]] })

	sortedVals := make([]float64, n)
	sortedVecs := vec.NewMatrix(n, n)
	for newCol, oldCol := range order {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

// applyJacobiRotation applies the Givens rotation J(p,q,c,s) as a
// similarity transform a ← Jᵀ·a·J and accumulates v ← v·J.
func applyJacobiRotation(a, v *vec.Matrix, p, q int, c, s float64) {
	n := a.Rows
	for i := 0; i < n; i++ {
		aip := a.At(i, p)
		aiq := a.At(i, q)
		a.Set(i, p, c*aip-s*aiq)
		a.Set(i, q, s*aip+c*aiq)
	}
	for j := 0; j < n; j++ {
		apj := a.At(p, j)
		aqj := a.At(q, j)
		a.Set(p, j, c*apj-s*aqj)
		a.Set(q, j, s*apj+c*aqj)
	}
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func identity(n int) *vec.Matrix {
	m := vec.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func offDiagNorm(a *vec.Matrix) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if i != j {
				v := a.At(i, j)
				s += v * v
			}
		}
	}
	return math.Sqrt(s)
}

func diagNorm(a *vec.Matrix) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		v := a.At(i, i)
		s += v * v
	}
	return math.Sqrt(s)
}
