package vec

// Body names one set of kernel bodies: the scan's Collect, DotTails, Dot
// and DotRange, DotInt16, TransformQuery, and the build's GramLower and
// MulScaled (and MulScaledInPlace) run the bodies of the selected one.
type Body uint8

const (
	// Portable is the plain-Go bodies, on every platform.
	Portable Body = iota
	// AVX2 is the assembly of kernels_amd64.s, on amd64 with AVX2, BMI1
	// and BMI2.
	AVX2
	// AVX512VNNI is AVX2 with Collect run by its AVX-512 VNNI body, on
	// amd64 with AVX512F, DQ, BW, VL and VNNI enabled by the OS.
	AVX512VNNI
)

// String returns the body's name: portable, avx2 or avx512vnni.
func (b Body) String() string {
	switch b {
	case AVX2:
		return "avx2"
	case AVX512VNNI:
		return "avx512vnni"
	}
	return "portable"
}

// active is the body the kernels run: the processor's best, read once at
// init, unless a test chose another through SetBody.
var active = best

// Selected returns the body the kernels run.
func Selected() Body { return active }

// Supported reports whether this processor can run body b: every body up
// to the best one it has.
func Supported(b Body) bool { return b <= best }

// SetBody makes the kernels run body b and returns the body it replaced:
// how tests here and in internal/core run once per body, no kernel
// running. It panics unless Supported(b).
func SetBody(b Body) (was Body) {
	if !Supported(b) {
		panic("vec: kernel body " + b.String() + " not supported by this processor")
	}
	was, active = active, b
	return was
}
