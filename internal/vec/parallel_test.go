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

// TestGramLowerMatchesDefinition: every entry is the sum over rows, in
// row order, of the products of two columns — to the bit, on row counts
// that leave each possible tail of the 4-row pass, on both sides of the
// parallel threshold, at every GOMAXPROCS and every split of the
// triangle that comes with it.
func TestGramLowerMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 31, parallelMinRows + 1, parallelMinRows + 2, parallelMinRows + 3} {
		for _, cols := range []int{1, 2, 3, 7, 10} {
			m := gaussian(rng, rows, cols)
			want := NewMatrix(cols, cols)
			for a := 0; a < cols; a++ {
				for b := 0; b < cols; b++ {
					var s float64
					for i := 0; i < rows; i++ {
						s += m.At(i, min(a, b)) * m.At(i, max(a, b))
					}
					want.Set(a, b, s)
				}
			}
			withProcs(t, func(procs int) {
				if got := m.GramLower(); !sameBits(got.Data, want.Data) {
					t.Fatalf("%d×%d at GOMAXPROCS %d: GramLower differs from the row-order sums", rows, cols, procs)
				}
			})
		}
	}
}

// TestMulScaledMatchesDefinition: entry (i, j) is the sum over k, in
// order, of m[i][k]·other[k][j], then times scale[j] — to the bit, on odd
// and even row and column counts (the tails of the 2-row × 3-column
// pass) and ranges that start on an odd row.
func TestMulScaledMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, rows := range []int{0, 1, 2, 3, 5, 8, parallelMinRows + 1, parallelMinRows + 2} {
		for _, inner := range []int{1, 4, 7} {
			for _, cols := range []int{1, 2, 3, 4, 5, 6, 7} {
				m, other := gaussian(rng, rows, inner), gaussian(rng, inner, cols)
				scale := make([]float64, cols)
				for j := range scale {
					scale[j] = float64(j%3) - 0.5 // negative, zero-crossing and positive
				}
				scale[cols-1] = 0 // a zeroed column keeps the sign of its sum
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
				withProcs(t, func(procs int) {
					if got := m.MulScaled(other, scale); !sameBits(got.Data, want.Data) {
						t.Fatalf("%d×%d·%d×%d at GOMAXPROCS %d: MulScaled differs from the k-order sums", rows, inner, inner, cols, procs)
					}
					if got := m.Mul(other); !sameBits(got.Data, wantPlain.Data) {
						t.Fatalf("%d×%d·%d×%d at GOMAXPROCS %d: Mul differs from the k-order sums", rows, inner, inner, cols, procs)
					}
				})
			}
		}
	}
}

// TestSortRowsByKeyDescIsTheStableOrder: on keys with many ties the
// permutation is the one a stable sort gives, the rows and keys follow
// it, and the input is left alone.
func TestSortRowsByKeyDescIsTheStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, rows := range []int{0, 1, 2, 50, parallelMinRows + 7} {
		m := NewMatrix(rows, 3)
		keys := make([]float64, rows)
		for i := range keys {
			keys[i] = float64(rng.Intn(9))
			m.Data[3*i] = float64(i)
		}
		want := make([]int, rows)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return int(keys[b] - keys[a]) })
		withProcs(t, func(procs int) {
			sorted, perm, sortedKeys := m.SortRowsByKeyDesc(keys)
			if !slices.Equal(perm, want) {
				t.Fatalf("%d rows at GOMAXPROCS %d: not the stable order", rows, procs)
			}
			for i, orig := range perm {
				if sorted.At(i, 0) != float64(orig) || sortedKeys[i] != keys[orig] {
					t.Fatalf("%d rows: sorted row %d is not input row %d", rows, i, orig)
				}
			}
			if rows > 0 && m.At(rows-1, 0) != float64(rows-1) {
				t.Fatal("input reordered")
			}
		})
	}
}
