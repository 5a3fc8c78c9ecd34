package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelBodies names the bodies of BlockRun and DotInt16 this machine can
// run: SetPortable(false) asks for the processor's, and undoing it reports
// whether those were the plain-Go ones.
func kernelBodies() []string {
	if was := SetPortable(false); SetPortable(was) {
		return []string{"portable"}
	}
	return []string{"avx2", "portable"}
}

// forceBody routes the kernels' dispatchers to one of kernelBodies for the
// rest of a test.
func forceBody(tb testing.TB, body string) {
	was := SetPortable(body != "avx2")
	tb.Cleanup(func() { SetPortable(was) })
}

// dotReference is the plain sequential loop the unrolled kernels must
// agree with (up to reassociation rounding).
func dotReference(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestDotMatchesReferenceAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for n := 0; n <= 67; n++ {
		a, b := randomSlice(rng, n), randomSlice(rng, n)
		got := Dot(a, b)
		want := dotReference(a, b)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("n=%d: Dot=%v ref=%v", n, got, want)
		}
	}
}

func TestDotRangeMatchesReferenceAllSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	a, b := randomSlice(rng, 41), randomSlice(rng, 41)
	for lo := 0; lo <= 41; lo++ {
		for hi := lo; hi <= 41; hi++ {
			got := DotRange(a, b, lo, hi)
			want := dotReference(a[lo:hi], b[lo:hi])
			if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("[%d,%d): %v vs %v", lo, hi, got, want)
			}
		}
	}
}

func TestDotInt64AllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for n := 0; n <= 19; n++ {
		a := make([]int32, n)
		b := make([]int32, n)
		var want int64
		for i := 0; i < n; i++ {
			a[i] = int32(rng.Intn(2001) - 1000)
			b[i] = int32(rng.Intn(2001) - 1000)
			want += int64(a[i]) * int64(b[i])
		}
		if got := DotInt64(a, b); got != want {
			t.Fatalf("n=%d: %d vs %d", n, got, want)
		}
	}
}

// TestDotInt16AllLengths: every body of DotInt16 equals the int64 sum of
// products at lengths 0…80, on slices starting at every offset 0…15 of a
// backing array (the assembly loads unaligned), for random values over the
// whole int16 range, for the range ends, and for vectors of nothing but
// math.MinInt16 — the one input whose VPMADDWD pair sum (2³¹) wraps.
func TestDotInt16AllLengths(t *testing.T) {
	for _, body := range kernelBodies() {
		t.Run(body, func(t *testing.T) {
			forceBody(t, body)
			rng := rand.New(rand.NewSource(203))
			backA, backB := make([]int16, 96), make([]int16, 96)
			fills := map[string]func() (int16, int16){
				"random":   func() (int16, int16) { return int16(rng.Intn(1 << 16)), int16(rng.Intn(1 << 16)) },
				"small":    func() (int16, int16) { return int16(rng.Intn(201) - 100), int16(rng.Intn(201) - 100) },
				"min":      func() (int16, int16) { return math.MinInt16, math.MinInt16 },
				"min·max":  func() (int16, int16) { return math.MinInt16, math.MaxInt16 },
				"max":      func() (int16, int16) { return math.MaxInt16, math.MaxInt16 },
				"min some": func() (int16, int16) { return int16(rng.Intn(2)) * math.MinInt16, math.MinInt16 },
			}
			for name, fill := range fills {
				for n := 0; n <= 80; n++ {
					for off := 0; off < 16; off++ {
						a, b := backA[off:off+n], backB[off:off+n]
						var want int64
						for i := range a {
							a[i], b[i] = fill()
							want += int64(a[i]) * int64(b[i])
						}
						if got := DotInt16(a, b); got != want {
							t.Fatalf("%s n=%d offset %d: %d vs %d", name, n, off, got, want)
						}
					}
				}
			}
		})
	}
}

func TestDotInt16PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DotInt16([]int16{1}, []int16{1, 2})
}

func BenchmarkDot50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomSlice(rng, 50), randomSlice(rng, 50)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	_ = sink
}

func BenchmarkDotInt64_50(b *testing.B) {
	x := make([]int32, 50)
	y := make([]int32, 50)
	for i := range x {
		x[i], y[i] = int32(i*7%199-100), int32(i*13%199-100)
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += DotInt64(x, y)
	}
	_ = sink
}

// BenchmarkDotInt16 sizes the tail bound's dot, per body, at d − w = 35
// (d = 50, w = 15) and at a whole d = 50 vector.
func BenchmarkDotInt16(b *testing.B) {
	for _, n := range []int{35, 50} {
		x := make([]int16, n)
		y := make([]int16, n)
		for i := range x {
			x[i], y[i] = int16(i*7%199-100), int16(i*13%199-100)
		}
		for _, body := range kernelBodies() {
			b.Run(fmt.Sprintf("n=%d/%s", n, body), func(b *testing.B) {
				forceBody(b, body)
				var sink int64
				for i := 0; i < b.N; i++ {
					sink += DotInt16(x, y)
				}
				sinkInt = sink
			})
		}
	}
}

var sinkInt int64
