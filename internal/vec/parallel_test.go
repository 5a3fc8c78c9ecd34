package vec

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// withProcs runs f at each GOMAXPROCS the parallel build is pinned at
// and restores the setting.
func withProcs(t *testing.T, f func(procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// gaussian returns a rows×cols matrix of N(0,1) draws with every 13th
// entry zeroed (the entries the sequential loops used to skip) and row 2
// all zero.
func gaussian(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if m.Data[i] = rng.NormFloat64(); i%13 == 0 || i/cols == 2 {
			m.Data[i] = 0
		}
	}
	return m
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestForRowsCoversEveryRowOnce: whatever n and GOMAXPROCS, the ranges
// partition [0, n): one per worker, a single one under the threshold.
func TestForRowsCoversEveryRowOnce(t *testing.T) {
	withProcs(t, func(procs int) {
		for _, n := range []int{0, 1, parallelMinRows - 1, parallelMinRows, parallelMinRows + 3, 3*parallelMinRows + 1} {
			seen := make([]int32, n)
			var mu sync.Mutex
			calls := 0
			ForRows(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Lock()
				calls++
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("GOMAXPROCS %d, n = %d: row %d visited %d times", procs, n, i, c)
				}
			}
			want := procs
			if n < parallelMinRows {
				want = 1
			}
			if calls != want {
				t.Fatalf("GOMAXPROCS %d, n = %d: %d ranges, want %d", procs, n, calls, want)
			}
		}
	})
}

// goroutineID returns the "goroutine N" that heads the caller's stack
// trace.
func goroutineID() string {
	buf := make([]byte, 32)
	id, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), " [")
	return id
}

func TestForRowsSmallInputStaysOnTheCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	caller, calls := goroutineID(), 0
	ForRows(parallelMinRows-1, func(lo, hi int) {
		if lo != 0 || hi != parallelMinRows-1 || goroutineID() != caller {
			t.Errorf("range [%d, %d) on %s, want the whole input on %s", lo, hi, goroutineID(), caller)
		}
		calls++
	})
	if calls != 1 {
		t.Fatalf("%d calls, want 1", calls)
	}
}

// eachBody runs f once under each of kernelBodies and restores the
// setting it found.
func eachBody(t *testing.T, f func(body Body)) {
	t.Helper()
	defer SetBody(SetBody(Portable))
	for _, body := range kernelBodies(t) {
		SetBody(body)
		f(body)
	}
}

// The shapes the definition tests below build at. Row counts leave every
// residue mod 4 — the rows the 4-row blocks of either body leave to a
// one-row loop — below and above the parallel threshold, whose split
// leaves other residues in each range. Column counts reach every
// remainder of the AVX2 Gram's 4-lane pass and of the transform's
// 8-column panels, and one panel plus each of them.
var (
	buildRows     = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 31, parallelMinRows, parallelMinRows + 1, parallelMinRows + 2, parallelMinRows + 3}
	buildCols     = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 50}
	buildInner    = []int{1, 4, 7, 50}
	bigBuildCols  = []int{9, 50} // at the parallel row counts
	bigBuildInner = []int{7, 50}
)

// buildShapes calls f with every (rows, cols) of buildRows × buildCols, at
// the parallel row counts only with bigBuildCols.
func buildShapes(f func(rows, cols int)) {
	for _, rows := range buildRows {
		cols := buildCols
		if rows >= parallelMinRows {
			cols = bigBuildCols
		}
		for _, c := range cols {
			f(rows, c)
		}
	}
}

// special returns a rows×cols matrix of −0, +0, subnormals, the smallest
// normal, ±1e200 (whose products overflow to ±Inf, and whose Inf sums of
// opposite signs are NaN), ±1 and Gaussian draws.
func special(rng *rand.Rand, rows, cols int) *Matrix {
	pool := []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e200, -1e200, 1, -1}
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if r := rng.Intn(2 * len(pool)); r < len(pool) {
			m.Data[i] = pool[r]
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// checkGramLower compares m.GramLower with the row-order sums under both
// kernel bodies and at every GOMAXPROCS.
func checkGramLower(t *testing.T, what string, m *Matrix) {
	t.Helper()
	cols := m.Cols
	want := NewMatrix(cols, cols)
	for a := 0; a < cols; a++ {
		for b := 0; b < cols; b++ {
			var s float64
			for i := 0; i < m.Rows; i++ {
				s += m.At(i, min(a, b)) * m.At(i, max(a, b))
			}
			want.Set(a, b, s)
		}
	}
	eachBody(t, func(body Body) {
		withProcs(t, func(procs int) {
			if got := m.GramLower(); !sameBits(got.Data, want.Data) {
				t.Fatalf("%s %d×%d, %s at GOMAXPROCS %d: GramLower differs from the row-order sums", what, m.Rows, cols, body, procs)
			}
		})
	})
}

// TestGramLowerMatchesDefinition: every entry is the sum over rows, in
// row order, of the products of two columns — to the bit, under both
// kernel bodies, on buildShapes, at every GOMAXPROCS and every split of
// the triangle that comes with it, and on special values.
func TestGramLowerMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	buildShapes(func(rows, cols int) { checkGramLower(t, "gaussian", gaussian(rng, rows, cols)) })
	for _, rows := range []int{7, parallelMinRows + 3} {
		checkGramLower(t, "special", special(rng, rows, 13))
	}
}

// checkMulScaled compares m.MulScaled(other, scale) and m.Mul(other) with
// the k-order sums under both kernel bodies and at every GOMAXPROCS.
func checkMulScaled(t *testing.T, what string, m, other *Matrix, scale []float64) {
	t.Helper()
	rows, inner, cols := m.Rows, m.Cols, other.Cols
	want, wantPlain := NewMatrix(rows, cols), NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var s float64
			for k := 0; k < inner; k++ {
				s += m.At(i, k) * other.At(k, j)
			}
			wantPlain.Set(i, j, s)
			want.Set(i, j, s*scale[j])
		}
	}
	eachBody(t, func(body Body) {
		withProcs(t, func(procs int) {
			if got := m.MulScaled(other, scale); !sameBits(got.Data, want.Data) {
				t.Fatalf("%s %d×%d·%d×%d, %s at GOMAXPROCS %d: MulScaled differs from the k-order sums", what, rows, inner, inner, cols, body, procs)
			}
			if got := m.Mul(other); !sameBits(got.Data, wantPlain.Data) {
				t.Fatalf("%s %d×%d·%d×%d, %s at GOMAXPROCS %d: Mul differs from the k-order sums", what, rows, inner, inner, cols, body, procs)
			}
		})
	})
}

// TestMulScaledMatchesDefinition: entry (i, j) is the sum over k, in
// order, of m[i][k]·other[k][j], then times scale[j] — to the bit, under
// both kernel bodies, on buildShapes × buildInner (the tails of the Go
// body's 2-row × 3-column pass and of the AVX2 body's 4-row × 8-column
// one, and ranges that start on any row), at every GOMAXPROCS, and on
// special values with special scales.
func TestMulScaledMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	buildShapes(func(rows, cols int) {
		inners := buildInner
		if rows >= parallelMinRows {
			inners = bigBuildInner
		}
		for _, inner := range inners {
			scale := make([]float64, cols)
			for j := range scale {
				scale[j] = float64(j%3) - 0.5 // negative, zero-crossing and positive
			}
			scale[cols-1] = 0 // a zeroed column keeps the sign of its sum
			checkMulScaled(t, "gaussian", gaussian(rng, rows, inner), gaussian(rng, inner, cols), scale)
		}
	})
	for _, rows := range []int{7, parallelMinRows + 3} {
		scale := []float64{1e300, 5e-324, math.Copysign(0, -1), 0, -1, 0.5, 1e-300, 3, -2, 1, 7, -1e300, 2}
		checkMulScaled(t, "special", special(rng, rows, 13), special(rng, 13, len(scale)), scale)
	}
}

// TestMulScaledInPlaceMatchesMulScaled: MulScaledInPlace leaves in m the
// bits MulScaled returns (which TestMulScaledMatchesDefinition pins to
// the k-order sums), under both kernel bodies and at every GOMAXPROCS, on
// row counts that leave every residue mod 4 on both sides of one
// in-place buffer (4·kernelChunk rows), of two, and of the parallel
// threshold — whose split hands each worker a range that ends in a
// partial buffer — and on special values.
func TestMulScaledInPlaceMatchesMulScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	chunk := 4 * kernelChunk
	var rows []int
	for _, at := range []int{0, chunk, 2 * chunk, parallelMinRows} {
		for r := max(0, at-3); r <= at+3; r++ {
			rows = append(rows, r)
		}
	}
	rows = append(rows, 3*parallelMinRows+5)
	check := func(what string, m, u *Matrix, scale []float64) {
		t.Helper()
		eachBody(t, func(body Body) {
			withProcs(t, func(procs int) {
				want := m.MulScaled(u, scale)
				got := m.Clone()
				got.MulScaledInPlace(u, scale)
				if !sameBits(got.Data, want.Data) {
					t.Fatalf("%s %d×%d, %s at GOMAXPROCS %d: MulScaledInPlace differs from MulScaled", what, m.Rows, m.Cols, body, procs)
				}
			})
		})
	}
	for _, r := range rows {
		dims := []int{1, 7, 8, 9, 50}
		if r > 2*chunk+3 {
			dims = []int{9, 50}
		}
		for _, d := range dims {
			scale := make([]float64, d)
			for j := range scale {
				scale[j] = float64(j%3) - 0.5
			}
			check("gaussian", gaussian(rng, r, d), gaussian(rng, d, d), scale)
			check("gaussian, nil scale", gaussian(rng, r, d), gaussian(rng, d, d), nil)
		}
	}
	for _, r := range []int{7, chunk + 1, parallelMinRows + 3} {
		scale := []float64{1e300, 5e-324, math.Copysign(0, -1), 0, -1, 0.5, 1e-300, 3, -2, 1, 7, -1e300, 2}
		check("special", special(rng, r, 13), special(rng, 13, 13), scale)
	}
}

// TestMulScaledInPlaceRejectsNonSquare: the product of an in-place
// transform must have m's shape.
func TestMulScaledInPlaceRejectsNonSquare(t *testing.T) {
	for _, tc := range []struct {
		u     *Matrix
		scale []float64
	}{
		{NewMatrix(3, 4), nil},
		{NewMatrix(4, 3), nil},
		{NewMatrix(3, 3), make([]float64, 2)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MulScaledInPlace of 5×3 by %d×%d with %d scales did not panic", tc.u.Rows, tc.u.Cols, len(tc.scale))
				}
			}()
			NewMatrix(5, 3).MulScaledInPlace(tc.u, tc.scale)
		}()
	}
}

// descOrder is DescendingOrder's comparison: decreasing, −0 equal to +0,
// NaN after every number and equal to every NaN.
func descOrder(a, b float64) int {
	switch an, bn := math.IsNaN(a), math.IsNaN(b); {
	case an && bn:
		return 0
	case an, a < b:
		return 1
	case bn, a > b:
		return -1
	}
	return 0
}

// TestSortRowsByKeyDescIsTheStableOrder: on keys with many ties, ±0,
// negatives, subnormals, ±Inf, ±MaxFloat64 and NaNs, the permutation is
// the one slices.SortStableFunc gives under descOrder, the rows and keys
// (bit for bit) follow it, and the input is left alone. The parent's
// comparison sort treated NaN as equal to every key and left finite keys
// out of order in about four of ten small key sets holding one NaN.
func TestSortRowsByKeyDescIsTheStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pool := []float64{math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 1e-310, math.MaxFloat64, -math.MaxFloat64, -2, -1, 1, 2, 3}
	sizes := []int{0, 1, 2, 50, 1000, parallelMinRows + 7}
	for range 300 {
		sizes = append(sizes, 2+rng.Intn(40))
	}
	for _, rows := range sizes {
		m := NewMatrix(rows, 3)
		keys := make([]float64, rows)
		for i := range keys {
			switch rng.Intn(3) {
			case 0:
				keys[i] = pool[rng.Intn(len(pool))]
			case 1:
				keys[i] = float64(rng.Intn(9))
			default:
				keys[i] = rng.ExpFloat64() * math.Pow(2, float64(rng.Intn(80)-40))
			}
			m.Data[3*i] = float64(i)
		}
		want := make([]int, rows)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return descOrder(keys[a], keys[b]) })
		withProcs(t, func(procs int) {
			sorted, perm, sortedKeys := m.SortRowsByKeyDesc(keys)
			if !slices.Equal(perm, want) {
				t.Fatalf("%d rows at GOMAXPROCS %d: not the stable order", rows, procs)
			}
			for i, orig := range perm {
				if sorted.At(i, 0) != float64(orig) || math.Float64bits(sortedKeys[i]) != math.Float64bits(keys[orig]) {
					t.Fatalf("%d rows: sorted row %d is not input row %d", rows, i, orig)
				}
			}
			if rows > 0 && m.At(rows-1, 0) != float64(rows-1) {
				t.Fatal("input reordered")
			}
		})
	}
}
