package scan_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fexipro/internal/scan"
	"fexipro/internal/vec"
)

// Property: SS, SS-L and Naive agree on the top-1 score for arbitrary
// small instances generated by testing/quick.
func TestScannersAgreeProperty(t *testing.T) {
	f := func(raw []float64, dRaw uint8) bool {
		d := int(dRaw%6) + 1
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				vals = append(vals, v)
			}
		}
		n := len(vals)/(d+1) - 1
		if n < 1 {
			return true
		}
		items := vec.NewMatrix(n, d)
		copy(items.Data, vals[:n*d])
		q := vals[n*d : n*d+d]

		naive := scan.NewNaive(items).Search(q, 1)
		ss := newSS(items, 0).Search(q, 1)
		sslTop := ssl(nil).Sequential(items).Search(q, 1)
		if len(naive) != 1 || len(ss) != 1 || len(sslTop) != 1 {
			return false
		}
		scale := vec.AbsMax(items.Data)*vec.AbsMax(q)*float64(d) + 1
		tol := 1e-9 * scale
		return math.Abs(ss[0].Score-naive[0].Score) <= tol &&
			math.Abs(sslTop[0].Score-naive[0].Score) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the k-th score is non-increasing in rank and the threshold
// behaviour of the heap matches the returned list for every scanner.
func TestResultsMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(100)
		d := 1 + rng.Intn(10)
		k := 1 + rng.Intn(n)
		items := vec.NewMatrix(n, d)
		for i := range items.Data {
			items.Data[i] = rng.NormFloat64()
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		res := newSS(items, 0).Search(q, k)
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Fatalf("trial %d: results not sorted at %d", trial, i)
			}
		}
		if len(res) != min(k, n) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(res), min(k, n))
		}
	}
}
