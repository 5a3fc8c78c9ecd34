package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fexipro/internal/vec"
)

// headMaskIndex builds an integer-only index of n Gaussian rows whose
// head packs into nw words under the 3×21 layout (E = 100, w = 3·nw).
func headMaskIndex(tb testing.TB, n, nw int) *Index {
	tb.Helper()
	rng := rand.New(rand.NewSource(19))
	items := vec.NewMatrix(n, 3*nw+1)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	idx, err := NewIndex(items, Options{Int: true, W: 3 * nw})
	if err != nil {
		tb.Fatal(err)
	}
	if idx.ints.nw != nw {
		tb.Fatalf("w = %d packs into %d words, want %d", idx.w, idx.ints.nw, nw)
	}
	return idx
}

// BenchmarkHeadMask is the sizing of the blocked scan's kernel: ns per
// row of one headMask pass per 16-row block over n = 10⁵ rows, for the
// word counts that have a straight-line body (the §7 profiles give 5 or
// 6 at d = 50) and, on the same indexes, the generic word loop every
// other shape takes. The cut is the bound's 98th percentile, so 2 % of
// the rows survive as in a real scan.
//
//	go test ./internal/core -run '^$' -bench HeadMask -count 6
func BenchmarkHeadMask(b *testing.B) {
	const n = 100000
	for _, nw := range []int{3, 5, 6, 7} {
		idx := headMaskIndex(b, n, nw)
		qs := idx.newQueryState()
		q := make([]float64, idx.d)
		for s := range q {
			q[s] = float64(s%5) - 1.5
		}
		idx.prepareQuery(q, qs)
		bounds := make([]float64, n)
		for i := range bounds {
			hb := idx.headBound(qs, i)
			bounds[i] = hb.bHead + hb.ub1
		}
		sort.Float64s(bounds)
		cut := bounds[n*98/100]
		for _, kernel := range []struct {
			name string
			mask func(qs *queryState, i, stop int, cut float64) uint32
		}{{"unrolled", idx.headMask}, {"generic", idx.headMaskGeneric}} {
			b.Run(fmt.Sprintf("nw=%d/%s", nw, kernel.name), func(b *testing.B) {
				var alive uint32
				for r := 0; r < b.N; r++ {
					for i := 0; i < n; i += blockRows {
						alive += kernel.mask(qs, i, min(i+blockRows, n), cut)
					}
				}
				sinkMask = alive
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			})
		}
	}
}

var sinkMask uint32
