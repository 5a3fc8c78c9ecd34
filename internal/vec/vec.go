// Package vec provides the dense vector and matrix kernels used by every
// other package in this repository: dot products, norms, partial (prefix
// and suffix) norms, scaling, and a flat row-major matrix type.
//
// The kernels are deliberately simple, allocation-free loops: the FEXIPRO
// framework spends nearly all of its time in short dot products and norm
// lookups, and the Go compiler turns these loops into tight scalar code.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
// It panics if the slices have different lengths.
//
// The loop is unrolled four-way with independent accumulators: the whole
// retrieval stack bottoms out in this kernel, and breaking the
// loop-carried dependency roughly doubles throughput on superscalar
// CPUs. Note the unrolled association changes the floating-point
// rounding relative to a sequential loop by O(d·eps), which is below
// every tolerance used in this repository.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// DotRange returns the inner product of a[lo:hi] and b[lo:hi].
func DotRange(a, b []float64, lo, hi int) float64 {
	var s0, s1, s2, s3 float64
	i := lo
	for ; i+4 <= hi; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < hi; i++ {
		s += a[i] * b[i]
	}
	return s
}

// DotInt64 returns the inner product of two integer vectors, accumulated
// in int64. It panics if the slices have different lengths.
func DotInt64(a, b []int32) int64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: DotInt64 length mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1 int64
	i := 0
	for ; i+2 <= len(a); i += 2 {
		s0 += int64(a[i]) * int64(b[i])
		s1 += int64(a[i+1]) * int64(b[i+1])
	}
	s := s0 + s1
	for ; i < len(a); i++ {
		s += int64(a[i]) * int64(b[i])
	}
	return s
}

// DotInt16 returns the inner product of two int16 vectors, accumulated in
// int64 and exact for every input: each term is bounded by 2³⁰ and slices
// are far shorter than 2³³.
// With AVX2 the bulk of a vector of 16 or more goes through VPMADDWD
// (kernels_amd64.s); dotInt16Go is the body everywhere else. It panics if
// the slices have different lengths.
func DotInt16(a, b []int16) int64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: DotInt16 length mismatch %d != %d", len(a), len(b)))
	}
	return dotInt16(a, b)
}

// dotInt16Go is DotInt16's plain-Go body.
func dotInt16Go(a, b []int16) int64 {
	var s0, s1 int64
	i := 0
	for ; i+2 <= len(a); i += 2 {
		s0 += int64(a[i]) * int64(b[i])
		s1 += int64(a[i+1]) * int64(b[i+1])
	}
	s := s0 + s1
	for ; i < len(a); i++ {
		s += int64(a[i]) * int64(b[i])
	}
	return s
}

// DotTail returns the inner product of the query floors q and the item
// floors p — the d−w tail of the integer bound — for values in
// [−128, 127] whose products sum to less than 2³¹ in magnitude, as every
// tail the integer bound stores does: (d−w)·o² < 2³¹. With AVX2 the bulk
// of a vector of 16 or more goes through VPMOVSXBW and VPMADDWD into int32
// lanes (kernels_amd64.s); dotTailGo is the body everywhere else. It
// panics if the slices have different lengths.
func DotTail(q []int16, p []int8) int64 {
	if len(q) != len(p) {
		panic(fmt.Sprintf("vec: DotTail length mismatch %d != %d", len(q), len(p)))
	}
	return dotTail(q, p)
}

// dotTailGo is DotTail's plain-Go body, exact in int64 for any input.
func dotTailGo(q []int16, p []int8) int64 {
	var s0, s1 int64
	i := 0
	for ; i+2 <= len(p); i += 2 {
		s0 += int64(q[i]) * int64(p[i])
		s1 += int64(q[i+1]) * int64(p[i+1])
	}
	s := s0 + s1
	for ; i < len(p); i++ {
		s += int64(q[i]) * int64(p[i])
	}
	return s
}

// Norm returns the Euclidean norm (length) of a.
func Norm(a []float64) float64 {
	return math.Sqrt(NormSquared(a))
}

// NormSquared returns the squared Euclidean norm of a.
func NormSquared(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return s
}

// NormRange returns the Euclidean norm of a[lo:hi].
func NormRange(a []float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		s += a[i] * a[i]
	}
	return math.Sqrt(s)
}

// AbsMax returns the maximum absolute value in a, or 0 for an empty slice.
func AbsMax(a []float64) float64 {
	var m float64
	for _, v := range a {
		// math.Abs, not a sign test: on factor vectors the sign is a coin
		// flip and the branch mispredicts every other element.
		if v = math.Abs(v); v > m {
			m = v
		}
	}
	return m
}

// AbsMaxRange returns the maximum absolute value in a[lo:hi], or 0 if the
// range is empty.
func AbsMaxRange(a []float64, lo, hi int) float64 {
	return AbsMax(a[lo:hi])
}

// Scale multiplies every element of a by s, in place.
func Scale(a []float64, s float64) {
	for i := range a {
		a[i] *= s
	}
}

// Scaled returns a new slice holding a scaled by s.
func Scaled(a []float64, s float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v * s
	}
	return out
}

// Add adds b to a element-wise, in place. It panics on length mismatch.
func Add(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Add length mismatch %d != %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += b[i]
	}
}

// Sub subtracts b from a element-wise, in place. It panics on length mismatch.
func Sub(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Sub length mismatch %d != %d", len(a), len(b)))
	}
	for i := range a {
		a[i] -= b[i]
	}
}

// AxpyInto sets dst = a + s*b. All three slices must share a length.
func AxpyInto(dst, a, b []float64, s float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("vec: AxpyInto length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + s*b[i]
	}
}

// Clone returns a copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 {
	return math.Sqrt(DistSquared(a, b))
}

// DistSquared returns the squared Euclidean distance between a and b.
// It panics on length mismatch.
func DistSquared(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: DistSquared length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
