package vec

import (
	"math"
	"math/rand"
	"testing"
)

// packedDot evaluates a·b through the packed kernel: pack both sides,
// DotPacked, then undo the offset.
func packedDot(t testing.TB, l *PackedLayout, a, b []int32) int64 {
	t.Helper()
	w := len(a)
	item := make([]uint64, l.Words(w))
	query := make([]uint64, l.Words(w))
	if !l.PackItem(item, a) || !l.PackQuery(query, b) {
		t.Fatalf("values outside [−%d, %d) rejected by pack", l.Offset(), l.Offset())
	}
	back := make([]int32, w)
	l.UnpackItem(back, item)
	for s := range a {
		if back[s] != a[s] {
			t.Fatalf("UnpackItem[%d] = %d, packed %d", s, back[s], a[s])
		}
	}
	var sumA, sumB int64
	for s := range a {
		sumA += int64(a[s])
		sumB += int64(b[s])
	}
	o := l.Offset()
	return l.Field(DotPacked(item, query)) - o*sumA - o*sumB - int64(w)*o*o
}

// TestPackedDotMatchesDotInt64 is the differential test of the packed
// kernel: over every field layout, widths that are not multiples of the
// field count, and the E values that sit on layout boundaries, the
// unpacked result must equal DotInt64 on the plain floors — for random
// vectors and for vectors pinned at the range ends −o (the ⌊−e−ε⌋
// floor) and o−1, where every field sum is largest.
func TestPackedDotMatchesDotInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		e      float64
		w      int
		fields int
	}{
		{10, 1, 3}, {10, 50, 3},
		{100, 2, 3}, {100, 17, 3}, {100, 18, 3}, {100, 19, 3}, {100, 50, 3}, {100, 51, 3}, {100, 52, 2},
		{170, 18, 3}, {170, 19, 2}, {171, 16, 2}, {171, 18, 2}, {171, 15, 3},
		{1000, 5, 2}, {1000, 19, 2}, {1000, 50, 2},
		{1e6, 1, 1}, {1e6, 7, 1}, {1e6, 50, 1},
	} {
		o := int64(math.Ceil(tc.e)) + 1
		l, ok := NewPackedLayout(o, tc.w)
		if !ok {
			t.Fatalf("E=%v w=%d: no layout", tc.e, tc.w)
		}
		if l.fields != tc.fields {
			t.Fatalf("E=%v w=%d: %d fields per word, want %d", tc.e, tc.w, l.fields, tc.fields)
		}
		fill := func(f func(s int) int32) []int32 {
			v := make([]int32, tc.w)
			for s := range v {
				v[s] = f(s)
			}
			return v
		}
		lo, hi := int32(-o), int32(o-1)
		vectors := [][]int32{
			fill(func(int) int32 { return lo }),
			fill(func(int) int32 { return hi }),
			fill(func(s int) int32 { return []int32{lo, hi}[s%2] }),
			fill(func(int) int32 { return 0 }),
		}
		for r := 0; r < 8; r++ {
			vectors = append(vectors, fill(func(int) int32 { return lo + int32(rng.Int63n(2*o)) }))
		}
		for _, a := range vectors {
			for _, b := range vectors {
				if got, want := packedDot(t, &l, a, b), DotInt64(a, b); got != want {
					t.Fatalf("E=%v w=%d: packed dot %d, DotInt64 %d\na=%v\nb=%v", tc.e, tc.w, got, want, a, b)
				}
			}
		}
	}
}

// TestPackedLayoutRejects: values outside [−o, o−1] are reported, and
// shapes no 64-bit field can hold have no layout.
func TestPackedLayoutRejects(t *testing.T) {
	l, ok := NewPackedLayout(101, 4)
	if !ok {
		t.Fatal("no layout at o=101")
	}
	dst := make([]uint64, l.Words(4))
	for _, v := range [][]int32{{0, 101, 0, 0}, {-102, 0, 0, 0}} {
		if l.PackItem(dst, v) {
			t.Fatalf("PackItem accepted %v at offset 101", v)
		}
	}
	for _, tc := range []struct {
		o int64
		w int
	}{{0, 4}, {-3, 4}, {101, 0}, {math.MaxInt32 + 1, 4}, {math.MaxInt32, 4}} {
		if _, ok := NewPackedLayout(tc.o, tc.w); ok {
			t.Fatalf("NewPackedLayout(%d, %d) succeeded", tc.o, tc.w)
		}
	}
}

// FuzzPackedDot drives the same differential with fuzzer-chosen shapes
// and values (reduced into the layout's range).
func FuzzPackedDot(f *testing.F) {
	f.Add(uint32(100), uint8(18), []byte{0, 255, 7, 9, 200, 1})
	f.Add(uint32(171), uint8(18), []byte{255, 255, 255, 255})
	f.Add(uint32(1000000), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, e uint32, w uint8, raw []byte) {
		if e == 0 || e > 1<<24 || w == 0 || w > 64 {
			return
		}
		o := int64(e) + 1
		l, ok := NewPackedLayout(o, int(w))
		if !ok {
			t.Fatalf("no layout for o=%d w=%d", o, w)
		}
		a, b := make([]int32, w), make([]int32, w)
		for s := range a {
			var x, y uint64
			for k := 0; k < 4 && len(raw) > 0; k++ {
				x = x<<8 | uint64(raw[(8*s+k)%len(raw)])
				y = y<<8 | uint64(raw[(8*s+4+k)%len(raw)])
			}
			a[s] = int32(int64(x%uint64(2*o)) - o)
			b[s] = int32(int64(y%uint64(2*o)) - o)
		}
		if got, want := packedDot(t, &l, a, b), DotInt64(a, b); got != want {
			t.Fatalf("o=%d w=%d: packed dot %d, DotInt64 %d", o, w, got, want)
		}
	})
}
