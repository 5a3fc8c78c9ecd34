// Package vec provides the dense vector and matrix kernels used by every
// other package in this repository: dot products, norms, partial (prefix
// and suffix) norms, scaling, and a flat row-major matrix type.
//
// The kernels are allocation-free loops: the FEXIPRO framework spends
// nearly all of its time in short dot products and norm lookups. The ones
// the scan and the build run most have assembly bodies on amd64
// (kernels_amd64.s), each the same arithmetic as its plain-Go body, which
// every platform keeps as the reference (body.go).
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
// It panics if the slices have different lengths.
//
// The sum runs in four independent accumulators, s_j over the terms
// i ≡ j (mod 4), added as ((s₀+s₁)+s₂)+s₃, and then the len mod 4 last
// terms in order: the whole retrieval stack bottoms out in this kernel,
// and breaking the loop-carried dependency roughly doubles throughput on
// superscalar CPUs. This association differs from a sequential loop by
// O(d·eps), below every tolerance used in this repository, but it is
// fixed: with AVX2 one ymm register holds (s₀, s₁, s₂, s₃), VMULPD and
// VADDPD take four terms at a time (kernels_amd64.s), and dotGo is the
// body everywhere else, the two bit for bit the same sum.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d != %d", len(a), len(b)))
	}
	return dot(a, b)
}

// DotRange returns the inner product of a[lo:hi] and b[lo:hi]: Dot of
// the two, and 0 for an empty range.
func DotRange(a, b []float64, lo, hi int) float64 {
	if lo >= hi {
		return 0
	}
	_, _ = a[hi-1], b[hi-1] // a length check, not a capacity one
	return dot(a[lo:hi], b[lo:hi])
}

// dotGo is Dot's plain-Go body, for len(a) = len(b). Each product is
// rounded by an explicit conversion before its add: Go may fuse x += y·z
// into one FMA (GOAMD64=v3, arm64), and a fused add would round once
// where the AVX2 body rounds twice.
func dotGo(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += float64(a[i] * b[i])
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

// DotTails sets out[k], for each k < len(rows), to the inner product of
// the query's tail floors q with row rows[k] of tab, the row-major table
// of item tail floors, dt = len(q) to a row: the d−w tail of the integer
// bound for a batch of rows in one call. The sum is taken mod 2³², so
// every body agrees for any input, and it is exact whenever it fits an
// int32 — as for every tail the index stores, whose floors lie in
// [−128, 127] with (d−w)·o² < 2³¹. With AVX2 and dt ≥ 16 each row goes
// through VPMOVSXBW and VPMADDWD into int32 lanes 16 floors a step, the
// dt mod 16 last ones too, never reading past the row's dt bytes
// (kernels_amd64.s); dotTailsGo is the body everywhere else. It panics
// if out is shorter than rows or a row lies outside tab.
func DotTails(q []int16, tab []int8, rows []int32, out []int32) {
	out = out[:len(rows)]
	dt := len(q)
	last := len(tab) - dt // where the last whole row starts
	for _, r := range rows {
		if r < 0 || int(r)*dt > last {
			panic(fmt.Sprintf("vec: DotTails row %d outside a table of %d", r, len(tab)/dt))
		}
	}
	dotTails(q, tab, rows, out)
}

// dotTailsGo is DotTails's plain-Go body, one row at a time, for rows
// inside tab.
func dotTailsGo(q []int16, tab []int8, rows []int32, out []int32) {
	dt := len(q)
	for k, r := range rows {
		out[k] = dotTailGo(q, tab[int(r)*dt:][:dt])
	}
}

// DotTail is DotTails for the one row p of item tail floors, len(p) =
// len(q): the same sum mod 2³² by the same bodies, without the row
// numbers and the output slice a batch needs — what a scan that decides
// one row at a time calls. It panics if the lengths differ.
func DotTail(q []int16, p []int8) int32 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vec: DotTail length mismatch %d != %d", len(q), len(p)))
	}
	return dotTail(q, p)
}

// dotTailGo is DotTail's plain-Go body: two int32 chains, as dotTailsGo
// sums every row.
func dotTailGo(q []int16, p []int8) int32 {
	p = p[:len(q)]
	var s0, s1 int32
	i := 0
	for ; i+2 <= len(q); i += 2 {
		s0 += int32(q[i]) * int32(p[i])
		s1 += int32(q[i+1]) * int32(p[i+1])
	}
	if i < len(q) {
		s0 += int32(q[i]) * int32(p[i])
	}
	return s0 + s1
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
