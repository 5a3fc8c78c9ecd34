package vec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelBodies names the bodies of BlockRun, DotInt16 and DotTail this machine can
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

// dotTailReference is DotTail's sum in int64, one term at a time.
func dotTailReference(q []int16, p []int8) int64 {
	var s int64
	for i := range p {
		s += int64(q[i]) * int64(p[i])
	}
	return s
}

// TestDotTailAllLengths: every body of DotTail equals the int64 sum of
// products at lengths 0…300, on slices starting at every offset 0…15 of a
// backing array (the assembly loads unaligned), for random floors in
// [−128, 127], for vectors of nothing but the range ends — −128·−128 is
// the largest product, 300 of them the largest sum here — and for random
// vectors with one lane pinned at each end, at every position.
func TestDotTailAllLengths(t *testing.T) {
	for _, body := range kernelBodies() {
		t.Run(body, func(t *testing.T) {
			forceBody(t, body)
			rng := rand.New(rand.NewSource(204))
			const maxLen = 300
			backQ, backP := make([]int16, maxLen+16), make([]int8, maxLen+16)
			floor := func() int8 { return int8(rng.Intn(256) - 128) }
			fills := map[string]func() (int16, int8){
				"random":   func() (int16, int8) { return int16(floor()), floor() },
				"min":      func() (int16, int8) { return math.MinInt8, math.MinInt8 },
				"min·max":  func() (int16, int8) { return math.MinInt8, math.MaxInt8 },
				"max·min":  func() (int16, int8) { return math.MaxInt8, math.MinInt8 },
				"max":      func() (int16, int8) { return math.MaxInt8, math.MaxInt8 },
				"min some": func() (int16, int8) { return int16(rng.Intn(2)) * math.MinInt8, math.MinInt8 },
				"max some": func() (int16, int8) { return math.MaxInt8, int8(rng.Intn(2)) * math.MaxInt8 },
			}
			check := func(what string, q []int16, p []int8) {
				if got, want := DotTail(q, p), dotTailReference(q, p); got != want {
					t.Fatalf("%s n=%d: %d vs %d", what, len(p), got, want)
				}
			}
			for name, fill := range fills {
				for n := 0; n <= maxLen; n++ {
					for off := 0; off < 16; off += 1 + n%3 {
						q, p := backQ[off:off+n], backP[off:off+n]
						for i := range p {
							q[i], p[i] = fill()
						}
						check(fmt.Sprintf("%s offset %d", name, off), q, p)
					}
				}
			}
			for n := 1; n <= maxLen; n++ {
				q, p := backQ[:n], backP[:n]
				for i := range p {
					q[i], p[i] = int16(floor()), floor()
				}
				for pos := range p {
					wasQ, wasP := q[pos], p[pos]
					for _, end := range [][2]int8{{math.MinInt8, math.MinInt8}, {math.MinInt8, math.MaxInt8}, {math.MaxInt8, math.MinInt8}, {math.MaxInt8, math.MaxInt8}} {
						q[pos], p[pos] = int16(end[0]), end[1]
						check(fmt.Sprintf("lane %d at %v", pos, end), q, p)
					}
					q[pos], p[pos] = wasQ, wasP
				}
			}
		})
	}
}

func TestDotTailPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DotTail([]int16{1}, []int8{1, 2})
}

// FuzzDotTail: for fuzzer-chosen floors in [−128, 127], each byte one
// floor, both bodies of DotTail equal the int64 sum of products over the
// common length — capped where 2¹⁴-products could first reach 2³¹, past
// DotTail's domain.
func FuzzDotTail(f *testing.F) {
	f.Add([]byte{0x80, 0x7f, 1, 2}, []byte{0x80, 0x80, 0xff, 3})
	f.Add(make([]byte, 37), make([]byte, 37))
	f.Add(bytes.Repeat([]byte{0x80}, 300), bytes.Repeat([]byte{0x80}, 300))
	f.Fuzz(func(t *testing.T, qBytes, pBytes []byte) {
		n := min(len(qBytes), len(pBytes), 1<<17-1)
		q, p := make([]int16, n), make([]int8, n)
		for i := range p {
			q[i], p[i] = int16(int8(qBytes[i])), int8(pBytes[i])
		}
		want := dotTailReference(q, p)
		for _, body := range kernelBodies() {
			forceBody(t, body)
			if got := DotTail(q, p); got != want {
				t.Fatalf("%s n=%d: %d vs %d", body, n, got, want)
			}
		}
	})
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

// BenchmarkDotTail sizes the tail bound's dot as the index stores it, per
// body, at the benchmark's d − w = 32 (lib-flat) and 37 (lib-skewed): the
// DotInt16 sibling over half the item bytes.
func BenchmarkDotTail(b *testing.B) {
	for _, n := range []int{32, 37} {
		q := make([]int16, n)
		p := make([]int8, n)
		for i := range p {
			q[i], p[i] = int16(i*7%199-100), int8(i*13%199-100)
		}
		for _, body := range kernelBodies() {
			b.Run(fmt.Sprintf("n=%d/%s", n, body), func(b *testing.B) {
				forceBody(b, body)
				var sink int64
				for i := 0; i < b.N; i++ {
					sink += DotTail(q, p)
				}
				sinkInt = sink
			})
		}
	}
}

var sinkInt int64
