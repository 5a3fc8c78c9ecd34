package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{nil, nil, 0},
		{[]float64{1}, []float64{2}, 2},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{-1, 2}, []float64{3, -4}, -11},
		{[]float64{0, 0}, []float64{1, 1}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestDotRangeMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randomSlice(rng, 20), randomSlice(rng, 20)
	whole := Dot(a, b)
	for _, w := range []int{0, 1, 7, 19, 20} {
		split := DotRange(a, b, 0, w) + DotRange(a, b, w, 20)
		if !almostEqual(split, whole, 1e-12) {
			t.Errorf("w=%d: split dot %v != whole %v", w, split, whole)
		}
	}
}

func TestDotInt64(t *testing.T) {
	a := []int32{1, -2, 3}
	b := []int32{4, 5, -6}
	if got := DotInt64(a, b); got != 4-10-18 {
		t.Errorf("DotInt64 = %d, want %d", got, 4-10-18)
	}
	// No overflow for large int32 values.
	big := []int32{math.MaxInt32, math.MaxInt32}
	want := 2 * int64(math.MaxInt32) * int64(math.MaxInt32)
	if got := DotInt64(big, big); got != want {
		t.Errorf("DotInt64 big = %d, want %d", got, want)
	}
}

func TestNorms(t *testing.T) {
	a := []float64{3, 4}
	if got := Norm(a); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := NormSquared(a); got != 25 {
		t.Errorf("NormSquared = %v, want 25", got)
	}
	if got := NormRange(a, 1, 2); got != 4 {
		t.Errorf("NormRange = %v, want 4", got)
	}
	if got := Norm(nil); got != 0 {
		t.Errorf("Norm(nil) = %v, want 0", got)
	}
}

func TestAbsMaxAndRange(t *testing.T) {
	a := []float64{-3, 1, 2.5}
	if got := AbsMax(a); got != 3 {
		t.Errorf("AbsMax = %v, want 3", got)
	}
	if got := AbsMaxRange(a, 1, 3); got != 2.5 {
		t.Errorf("AbsMaxRange = %v, want 2.5", got)
	}
	if got := AbsMaxRange(a, 1, 1); got != 0 {
		t.Errorf("AbsMaxRange empty = %v, want 0", got)
	}
	if got := AbsMax(nil); got != 0 {
		t.Errorf("AbsMax(nil) = %v, want 0", got)
	}
}

func TestScaleAddSubClone(t *testing.T) {
	a := []float64{1, 2}
	Scale(a, 2)
	if a[0] != 2 || a[1] != 4 {
		t.Errorf("Scale got %v", a)
	}
	b := Scaled(a, 0.5)
	if b[0] != 1 || b[1] != 2 {
		t.Errorf("Scaled got %v", b)
	}
	Add(a, b)
	if a[0] != 3 || a[1] != 6 {
		t.Errorf("Add got %v", a)
	}
	Sub(a, b)
	if a[0] != 2 || a[1] != 4 {
		t.Errorf("Sub got %v", a)
	}
	c := Clone(a)
	c[0] = 99
	if a[0] == 99 {
		t.Error("Clone aliases source")
	}
}

func TestDist(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := Dist(a, b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := DistSquared(a, b); got != 25 {
		t.Errorf("DistSquared = %v, want 25", got)
	}
}

// Property: Cauchy–Schwarz, |a·b| ≤ ‖a‖·‖b‖, for arbitrary vectors.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a, b := raw[:half], raw[half:2*half]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // avoid overflow artifacts; not the property under test
			}
		}
		dot := math.Abs(Dot(a, b))
		bound := Norm(a) * Norm(b)
		return dot <= bound*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the incremental-pruning decomposition (Eq. 1 of the paper)
// a·b = a^ℓ·b^ℓ + a^h·b^h ≤ a^ℓ·b^ℓ + ‖a^h‖‖b^h‖ holds for any split w.
func TestIncrementalBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		d := 1 + rng.Intn(30)
		a, b := randomSlice(rng, d), randomSlice(rng, d)
		w := rng.Intn(d + 1)
		exact := Dot(a, b)
		bound := DotRange(a, b, 0, w) + NormRange(a, w, d)*NormRange(b, w, d)
		if exact > bound+1e-9 {
			t.Fatalf("d=%d w=%d: exact %v exceeds bound %v", d, w, exact, bound)
		}
	}
}

func randomSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}
