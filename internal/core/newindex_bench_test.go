package core

import (
	"fmt"
	"testing"
	"time"

	"fexipro/internal/data"
	"fexipro/internal/vec"
)

// BenchmarkNewIndex is the sizing of Algorithm 3: one F-SIR build over
// n = 10⁵, d = 50 items of each dataset shape, in ms per build, and what
// the build is made of — the norm pass with the stable sort and gather,
// the Gram matrix, the V₁ transform, and the integer and reduction
// tables — each stage timed on its own over the same data (the 50×50
// Jacobi and the tail norms are the remainder). Run it at -cpu 1,2: the
// blocked kernels pay on one core, the row split on the second.
//
//	go test ./internal/core -run '^$' -bench 'NewIndex$' -cpu 1,2 -count 6
func BenchmarkNewIndex(b *testing.B) {
	const n, d = 100000, 50
	opts := Options{SVD: true, Int: true, Reduction: true}
	for _, p := range []data.Profile{data.MovieLens(), data.Netflix()} {
		items := data.Generate(p, n, 1, d).Items
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

			var sorted *vec.Matrix
			stage := func(unit string, run func()) {
				best := time.Duration(1 << 62)
				for range 3 {
					t0 := time.Now()
					run()
					best = min(best, time.Since(t0))
				}
				b.ReportMetric(float64(best.Microseconds())/1e3, unit)
			}
			stage("sort-ms", func() {
				norms, err := checkedNorms(items)
				if err != nil {
					b.Fatal(err)
				}
				sorted, _, _ = items.SortRowsByKeyDesc(norms)
			})
			stage("gram-ms", func() { sorted.GramLower() })
			// Any d scales time the same; σ stands in for Σ⁻¹.
			stage("transform-ms", func() { sorted.MulScaled(idx.thin.U, idx.sigma) })
			stage("int+red-ms", func() {
				if _, err := buildIntData(idx.bar, idx.w, opts.withDefaults().E, false); err != nil {
					b.Fatal(err)
				}
				buildRedData(idx.bar, idx.w, idx.sigma)
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
