package core

import (
	"fmt"
	"testing"
	"time"

	"fexipro/internal/data"
	"fexipro/internal/svd"
	"fexipro/internal/vec"
)

// BenchmarkNewIndex is the sizing of Algorithm 3: one F-SIR build over
// n = 10⁵, d = 50 items of each dataset shape, in ms per build, and what
// the build is made of — the validating norm pass, the norm order, the
// gather of the rows into it, the Gram matrix, its 50×50 Jacobi, the V₁
// transform written over the gathered rows, and derive's two passes (the
// row sums and extrema, then the integer and reduction tables) — each
// stage timed on its own over the same data (allocation is the
// remainder). Run it at -cpu 1,2: the blocked kernels pay on one core,
// the row split on the second; the order and the Jacobi run on one
// goroutine.
//
//	go test ./internal/core -run '^$' -bench 'NewIndex$' -cpu 1,2 -count 6
func BenchmarkNewIndex(b *testing.B) {
	const n, d = 100000, 50
	opts := Options{SVD: true, Int: true, Reduction: true}
	for _, p := range []data.Profile{data.MovieLens(), data.Netflix()} {
		items := data.Generate(p, n, 1, d).Items
		cat := catalogOf(items)
		b.Run(p.Name, func(b *testing.B) {
			var idx *Index
			for i := 0; i < b.N; i++ {
				var err error
				if idx, err = NewIndex(items, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer() // the stage split below is timed by hand
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/build")

			var (
				norms        []float64
				perm         []int
				sorted, gram *vec.Matrix
			)
			stage := func(unit string, run func()) {
				best := time.Duration(1 << 62)
				for range 3 {
					t0 := time.Now()
					run()
					best = min(best, time.Since(t0))
				}
				b.ReportMetric(float64(best.Microseconds())/1e3, unit)
			}
			stage("norms-ms", func() {
				var err error
				if norms, err = checkedNorms(&cat, nil, items.Rows); err != nil {
					b.Fatal(err)
				}
			})
			stage("order-ms", func() { perm = vec.DescendingOrder(norms) })
			stage("gather-ms", func() { sorted = gatherRows(&cat, nil, perm) })
			stage("gram-ms", func() { gram = sorted.GramLower() })
			stage("eigen-ms", func() {
				if _, _, err := svd.SymEigen(gram); err != nil {
					b.Fatal(err)
				}
			})
			// The build writes V₁ over the gathered rows; the stage does
			// the same to one copy of them, over and over. An orthonormal
			// U and unit scales keep every value's size, and any scales
			// cost the same.
			ones := make([]float64, d)
			for j := range ones {
				ones[j] = 1
			}
			work := sorted.Clone()
			stage("transform-ms", func() { work.MulScaledInPlace(idx.thin.U, ones) })
			var ext rowExtrema
			stage("sums-ms", func() {
				cp := *idx
				ext = cp.rowSums()
			})
			stage("tables-ms", func() {
				cp := *idx
				if err := cp.rowTables(ext); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkNewIndexThreshold sizes vec's row-count threshold for going
// parallel: one F-SIR build (MovieLens shape, d = 50) one row under it,
// at it, and at a few multiples. Run at -cpu 1,2: under the threshold
// the two must agree (no goroutine is started), from it on -cpu 2
// should not lose.
//
//	go test ./internal/core -run '^$' -bench NewIndexThreshold -cpu 1,2 -count 6
func BenchmarkNewIndexThreshold(b *testing.B) {
	opts := Options{SVD: true, Int: true, Reduction: true}
	for _, n := range []int{1024, 4095, 4096, 16384} {
		items := data.Generate(data.MovieLens(), n, 1, 50).Items
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewIndex(items, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
