package vec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelBodies returns the bodies this processor runs, the best first,
// and logs each one it skips and why: every test of a kernel runs once
// per body the machine has.
func kernelBodies(tb testing.TB) []Body {
	var run []Body
	for _, b := range []Body{AVX512VNNI, AVX2, Portable} {
		if Supported(b) {
			run = append(run, b)
		} else {
			tb.Logf("%s body skipped: this processor lacks its instructions", b)
		}
	}
	return run
}

// forceBody routes the kernels' dispatchers to one of kernelBodies for the
// rest of a test.
func forceBody(tb testing.TB, body Body) {
	was := SetBody(body)
	tb.Cleanup(func() { SetBody(was) })
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
	for _, body := range kernelBodies(t) {
		t.Run(body.String(), func(t *testing.T) {
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

// dotTailReference is a DotTails sum in int64, one term at a time.
func dotTailReference(q []int16, p []int8) int64 {
	var s int64
	for i := range p {
		s += int64(q[i]) * int64(p[i])
	}
	return s
}

// checkDotTails runs DotTails over rows of tab into an out one longer
// than rows, and fails unless each out[k] — and DotTail of the row — is
// the int64 sum of row rows[k] mod 2³² and the slot past the batch is
// untouched.
func checkDotTails(tb testing.TB, what string, q []int16, tab []int8, rows []int32) {
	tb.Helper()
	const sentinel = -0x5A5A5A5B
	out := make([]int32, len(rows)+1)
	for k := range out {
		out[k] = sentinel
	}
	DotTails(q, tab, rows, out)
	dt := len(q)
	for k, r := range rows {
		row := tab[int(r)*dt:][:dt]
		if want := int32(dotTailReference(q, row)); out[k] != want {
			tb.Fatalf("%s dt=%d, %d rows: row %d (slot %d) %d vs %d", what, dt, len(rows), r, k, out[k], want)
		} else if got := DotTail(q, row); got != want {
			tb.Fatalf("%s dt=%d: DotTail of row %d %d vs %d", what, dt, r, got, want)
		}
	}
	if out[len(rows)] != sentinel {
		tb.Fatalf("%s dt=%d: wrote past %d rows", what, dt, len(rows))
	}
}

// TestDotTailAllLengths: every body of DotTails equals the int64 sum of
// products at every dt 1…70, for batches of 0…32 rows drawn with repeats
// from a 40-row table whose last row ends the slice — on Linux where an
// unreadable page begins, so reading past any row would fault — and a
// query slice at every offset mod 16 (the assembly loads unaligned). The
// floors are random in [−128, 127], nothing but the range ends (−128·−128
// is the largest product), or random with one lane of the query and of
// the last row pinned at each end, at every position.
func TestDotTailAllLengths(t *testing.T) {
	for _, body := range kernelBodies(t) {
		t.Run(body.String(), func(t *testing.T) {
			forceBody(t, body)
			rng := rand.New(rand.NewSource(204))
			const tableRows, maxDt = 40, 70
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
			backQ := make([]int16, maxDt+16)
			for dt := 1; dt <= maxDt; dt++ {
				tab := guardedFloors(t, tableRows*dt)
				q := backQ[dt%16:][:dt]
				for name, fill := range fills {
					for i := range tab {
						_, tab[i] = fill()
					}
					for i := range q {
						q[i], _ = fill()
					}
					for size := 0; size <= 32; size++ {
						rows := make([]int32, size)
						for k := range rows {
							rows[k] = int32(rng.Intn(tableRows))
						}
						if size > 0 {
							rows[rng.Intn(size)] = tableRows - 1
						}
						if size > 1 {
							rows[rng.Intn(size)] = rows[rng.Intn(size)]
						}
						checkDotTails(t, name, q, tab, rows)
					}
				}
				last := tab[(tableRows-1)*dt:]
				for i := range q {
					q[i] = int16(floor())
				}
				for i := range tab {
					tab[i] = floor()
				}
				rows := []int32{tableRows - 1, 0, tableRows - 1}
				for pos := range q {
					wasQ, wasP := q[pos], last[pos]
					for _, end := range [][2]int8{{math.MinInt8, math.MinInt8}, {math.MinInt8, math.MaxInt8}, {math.MaxInt8, math.MinInt8}, {math.MaxInt8, math.MaxInt8}} {
						q[pos], last[pos] = int16(end[0]), end[1]
						checkDotTails(t, fmt.Sprintf("lane %d at %v", pos, end), q, tab, rows)
					}
					q[pos], last[pos] = wasQ, wasP
				}
			}
		})
	}
}

// TestDotTailPanicsOnMismatch: DotTails refuses a row outside the table,
// either side of it, and an out shorter than the batch; DotTail a row
// whose length is not the query's.
func TestDotTailPanicsOnMismatch(t *testing.T) {
	q, tab := []int16{1, 2}, []int8{1, 2, 3, 4, 5} // two whole rows
	for name, call := range map[string]func(){
		"row past the table": func() { DotTails(q, tab, []int32{0, 2}, make([]int32, 2)) },
		"negative row":       func() { DotTails(q, tab, []int32{-1}, make([]int32, 1)) },
		"short out":          func() { DotTails(q, tab, []int32{0, 1}, make([]int32, 1)) },
		"short row":          func() { DotTail(q, tab[:1]) },
		"long row":           func() { DotTail(q, tab[:3]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	for _, body := range kernelBodies(t) {
		forceBody(t, body)
		out := []int32{7, 7}
		if DotTails(nil, tab, []int32{5}, out); out[0] != 0 || out[1] != 7 || DotTail(nil, nil) != 0 {
			t.Fatalf("%s: dt = 0 left %v", body, out)
		}
	}
}

// FuzzDotTail: for a fuzzer-chosen query of any int16 values (two bytes
// each, dt = their count), table bytes cut into rows of dt floors, and
// batch rows (one byte each, taken mod the rows there are), every body of
// DotTails, and of DotTail row by row, equals the int64 sum of products
// mod 2³².
func FuzzDotTail(f *testing.F) {
	f.Add([]byte{0x80, 0xff, 0x7f, 0, 1, 0, 2, 0}, []byte{0x80, 0x80, 0xff, 3, 0x7f, 0x80, 1, 2}, []byte{1, 0, 1})
	f.Add(make([]byte, 74), make([]byte, 37*3), []byte{2, 2, 0, 1})
	f.Add(bytes.Repeat([]byte{0x80, 0xff}, 70), bytes.Repeat([]byte{0x80}, 70*33), bytes.Repeat([]byte{32}, 32))
	f.Fuzz(func(t *testing.T, qBytes, tabBytes, rowBytes []byte) {
		dt := min(len(qBytes)/2, 1<<10)
		if dt == 0 || len(tabBytes) < dt {
			return
		}
		q := make([]int16, dt)
		for i := range q {
			q[i] = int16(binary.LittleEndian.Uint16(qBytes[2*i:]))
		}
		tab := make([]int8, len(tabBytes)/dt*dt)
		for i := range tab {
			tab[i] = int8(tabBytes[i])
		}
		rows := make([]int32, min(len(rowBytes), 64))
		for k := range rows {
			rows[k] = int32(int(rowBytes[k]) % (len(tab) / dt))
		}
		for _, body := range kernelBodies(t) {
			forceBody(t, body)
			checkDotTails(t, body.String(), q, tab, rows)
		}
	})
}

// sameFloat reports whether x and y have the same bits or are both NaN:
// which NaN operand's payload a sum passes on follows operand order,
// which Go does not fix for a commutative operation.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// FuzzDot: on fuzzer-chosen float64 bits — the seeds hold ±0, denormals,
// ±Inf, NaNs and magnitudes whose products overflow or underflow — every
// body of Dot and DotRange gives dotGo's bits for every length 0…70 and
// every lo.
func FuzzDot(f *testing.F) {
	specials := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -1e300, 1e-300, 1, -1.5, 3.25}
	raw := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(raw(specials...))
	rng := rand.New(rand.NewSource(205))
	many := make([]float64, 140)
	for i := range many {
		if many[i] = rng.NormFloat64(); i%9 == 0 {
			many[i] = specials[rng.Intn(len(specials))]
		}
	}
	f.Add(raw(many...))
	f.Add(raw(randomSlice(rng, 140)...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := min(len(raw)/16, 70)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			b[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
		}
		for _, body := range kernelBodies(t) {
			forceBody(t, body)
			for hi := 0; hi <= n; hi++ {
				if got, want := Dot(a[:hi], b[:hi]), dotGo(a[:hi], b[:hi]); !sameFloat(got, want) {
					t.Fatalf("%s: Dot of length %d = %v, dotGo %v", body, hi, got, want)
				}
				for lo := 0; lo <= hi; lo++ {
					if got, want := DotRange(a, b, lo, hi), dotGo(a[lo:hi], b[lo:hi]); !sameFloat(got, want) {
						t.Fatalf("%s: DotRange [%d, %d) = %v, dotGo %v", body, lo, hi, got, want)
					}
				}
			}
		}
	})
}

// FuzzBuildKernels: on fuzzer-chosen shapes and float64 bits, the AVX2
// and plain-Go bodies of GramLower, MulScaled, Mul and MulScaledInPlace
// agree bit for bit, and MulScaledInPlace leaves what MulScaled returns.
// Input NaNs become the quiet NaN x86 makes itself (0xFFF8…): which of
// two NaN operands a sum or product passes on follows operand order, and
// Go does not fix the order of a commutative operation's operands, while
// every NaN either body makes from numbers is that one.
func FuzzBuildKernels(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(9), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3, 4, 5, 6, 7, 0xbf})
	f.Add(uint8(66), uint8(50), uint8(50), bytes.Repeat([]byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0x80}, 7))
	f.Add(uint8(13), uint8(17), uint8(12), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0x69, 0x9e, 0x3f, 0x7c, 0xa4, 0xd1, 0x97, 0x69})
	f.Fuzz(func(t *testing.T, rows, inner, cols uint8, raw []byte) {
		vals := make([]float64, len(raw)/8)
		if len(vals) == 0 {
			return
		}
		for i := range vals {
			if vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])); math.IsNaN(vals[i]) {
				vals[i] = math.Float64frombits(0xFFF8000000000000)
			}
		}
		at := 0
		fill := func(x []float64) {
			for i := range x {
				x[i] = vals[at%len(vals)]
				at++
			}
		}
		m, other := NewMatrix(int(rows)%67, int(inner)%51+1), NewMatrix(int(inner)%51+1, int(cols)%51+1)
		scale := make([]float64, other.Cols)
		fill(m.Data)
		fill(other.Data)
		fill(scale)
		// The in-place form takes a square other: m.Cols × m.Cols.
		u, uScale := NewMatrix(m.Cols, m.Cols), make([]float64, m.Cols)
		fill(u.Data)
		fill(uScale)
		q := make([]float64, m.Cols)
		fill(q)
		for i := 0; i < len(q); i += 3 {
			q[i] = 0 // a row the transform skips
		}
		var got [][4]*Matrix
		var transformed [][]float64
		for _, body := range kernelBodies(t) {
			forceBody(t, body)
			qbar := make([]float64, u.Cols)
			TransformQuery(qbar, u, q, uScale)
			transformed = append(transformed, qbar)
			inPlace := m.Clone()
			inPlace.MulScaledInPlace(u, uScale)
			if want := m.MulScaled(u, uScale); !sameBits(inPlace.Data, want.Data) {
				t.Fatalf("MulScaledInPlace of %d×%d, %s: differs from MulScaled", m.Rows, m.Cols, body)
			}
			got = append(got, [4]*Matrix{m.GramLower(), m.MulScaled(other, scale), m.Mul(other), inPlace})
		}
		for i, name := range []string{"GramLower", "MulScaled", "Mul", "MulScaledInPlace"} {
			if a, b := got[0][i], got[len(got)-1][i]; !sameBits(a.Data, b.Data) {
				t.Fatalf("%s of %d×%d by %d×%d: the bodies differ", name, m.Rows, m.Cols, other.Rows, other.Cols)
			}
		}
		if a, b := transformed[0], transformed[len(transformed)-1]; !sameBits(a, b) {
			t.Fatalf("TransformQuery at d = %d: the bodies differ", len(q))
		}
	})
}

// TestTransformQueryBodies holds every body of TransformQuery to the
// plain-Go one bit for bit: 200 queries per shape with a fifth of their
// coordinates zero (and a −0, an Inf and a NaN), at dimensions around the 16- and 4-column passes,
// over a u with as many columns as dst and with more.
func TestTransformQueryBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 15, 16, 17, 20, 31, 32, 33, 50, 51, 64} {
		for _, extra := range []int{0, 3} {
			u := gaussian(rng, d, d+extra)
			scale := randomSlice(rng, d)
			q, want, got := make([]float64, d), make([]float64, d), make([]float64, d)
			for n := 0; n < 200; n++ {
				for i := range q {
					if q[i] = rng.NormFloat64(); rng.Intn(5) == 0 {
						q[i] = 0
					}
				}
				if n == 0 {
					q[0] = math.Copysign(0, -1) // skipped like +0
				}
				if n == 1 {
					q[d-1] = math.Inf(1)
				}
				if n == 2 {
					q[d/2] = math.NaN() // unequal to zero: not skipped
				}
				transformGo(want, u, q, scale)
				for _, body := range kernelBodies(t) {
					forceBody(t, body)
					for j := range got {
						got[j] = math.NaN() // every column must be written
					}
					TransformQuery(got, u, q, scale)
					if !sameBits(got, want) {
						t.Fatalf("d = %d, %d extra columns, query %d, %s: %v, want %v", d, extra, n, body, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkTransformQuery sizes the per-query transform at d = 50 per body.
func BenchmarkTransformQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u, scale, q := gaussian(rng, 50, 50), randomSlice(rng, 50), randomSlice(rng, 50)
	dst := make([]float64, 50)
	for _, body := range kernelBodies(b) {
		b.Run(body.String(), func(b *testing.B) {
			forceBody(b, body)
			for i := 0; i < b.N; i++ {
				TransformQuery(dst, u, q, scale)
			}
		})
	}
}

// BenchmarkGramLower and BenchmarkMulScaled size the build's two float64
// loops, per body, at the benchmark's n = 10⁵, d = 50 (run at -cpu 1,2).
func BenchmarkGramLower(b *testing.B) {
	m := gaussian(rand.New(rand.NewSource(1)), 100000, 50)
	for _, body := range kernelBodies(b) {
		b.Run(body.String(), func(b *testing.B) {
			forceBody(b, body)
			for i := 0; i < b.N; i++ {
				sinkMatrix = m.GramLower()
			}
		})
	}
}

func BenchmarkMulScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, u := gaussian(rng, 100000, 50), gaussian(rng, 50, 50)
	scale := randomSlice(rng, 50)
	for _, body := range kernelBodies(b) {
		b.Run(body.String(), func(b *testing.B) {
			forceBody(b, body)
			for i := 0; i < b.N; i++ {
				sinkMatrix = m.MulScaled(u, scale)
			}
		})
	}
}

var sinkMatrix *Matrix

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
		for _, body := range kernelBodies(b) {
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

// BenchmarkDotTails sizes the tail bounds of a survivor batch, per body,
// at d − w = 30, 34 (lib-flat and lib-skewed at the rounded w), 32 and 37
// (at ρ's), for batches of 1, 16 and 32 rows spread over the 10⁵ rows of
// a table as a scan's survivors are, and one row at a time through
// DotTail ("row", what a per-row scan calls); ns/row is per row.
func BenchmarkDotTails(b *testing.B) {
	const tableRows, batches = 100000, 1024
	rng := rand.New(rand.NewSource(1))
	for _, dt := range []int{30, 32, 34, 37} {
		q := make([]int16, dt)
		for i := range q {
			q[i] = int16(rng.Intn(256) - 128)
		}
		tab := make([]int8, tableRows*dt)
		for i := range tab {
			tab[i] = int8(rng.Intn(256) - 128)
		}
		for _, size := range []int{0, 1, 16, 32} {
			rows := make([]int32, batches*max(size, 1))
			for k := range rows {
				rows[k] = int32(rng.Intn(tableRows))
			}
			for _, body := range kernelBodies(b) {
				if size == 0 {
					b.Run(fmt.Sprintf("dt=%d/row/%s", dt, body), func(b *testing.B) {
						forceBody(b, body)
						var sum int32
						for i := 0; i < b.N; i++ {
							r := int(rows[i%batches])
							sum += DotTail(q, tab[r*dt:][:dt])
						}
						sinkMask = int(sum)
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
					})
					continue
				}
				b.Run(fmt.Sprintf("dt=%d/batch=%d/%s", dt, size, body), func(b *testing.B) {
					forceBody(b, body)
					out := make([]int32, size)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						at := i % batches * size
						DotTails(q, tab, rows[at:at+size], out)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/row")
				})
			}
		}
	}
}

// BenchmarkDotRange sizes the float products of the scan's cascade, per
// body, at d = 50, w = 13: the head [0, 13), the tail [13, 50) and the
// whole [0, 50).
func BenchmarkDotRange(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomSlice(rng, 50), randomSlice(rng, 50)
	for _, r := range [][2]int{{0, 13}, {13, 50}, {0, 50}} {
		for _, body := range kernelBodies(b) {
			b.Run(fmt.Sprintf("%d-%d/%s", r[0], r[1], body), func(b *testing.B) {
				forceBody(b, body)
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += DotRange(x, y, r[0], r[1])
				}
				sinkFloat = sink
			})
		}
	}
}

var sinkFloat float64

var sinkInt int64

// TestBodies: the selected body and the plain-Go one run here, SetBody
// installs each body the processor has and hands back the one it
// replaced, refuses one it lacks, and the names are what fexserve's
// /v1/info reports. It logs the bodies: make fuzz-smoke runs it first, so
// its log names the bodies every fuzz run after it covered.
func TestBodies(t *testing.T) {
	run := kernelBodies(t)
	t.Logf("kernel bodies run here: %v; selected: %s", run, Selected())
	if !Supported(Selected()) || !Supported(Portable) {
		t.Fatalf("selected %s or portable not supported", Selected())
	}
	for _, b := range run {
		was := SetBody(b)
		if got := SetBody(was); got != b {
			t.Fatalf("SetBody(%s) installed %s", b, got)
		}
	}
	if !Supported(AVX512VNNI) {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("SetBody installed a body the processor lacks")
				}
			}()
			SetBody(AVX512VNNI)
		}()
	}
	for b, name := range map[Body]string{Portable: "portable", AVX2: "avx2", AVX512VNNI: "avx512vnni"} {
		if b.String() != name {
			t.Fatalf("body %d named %q, want %q", b, b.String(), name)
		}
	}
}
