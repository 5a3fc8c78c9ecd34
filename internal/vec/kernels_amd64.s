#include "textflag.h"
#include "go_asm.h"

// AVX2 bodies of the two integer kernels (DESIGN.md §3). Nothing here is
// outside AVX2 — no FMA, no AVX-512 — so a GOAMD64=v1 build runs them
// behind detectAVX2.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func headBlockMaskAVX2(h *HeadTest, row int, cut float64) uint32
//
// Y0 and Y1 hold IU of rows 0–7 and 8–15 as int32. Each is converted to
// float64 exactly, multiplied by factor, and added to the separately
// rounded tail·tails — two VMULPD and a VADDPD, never an FMA, so a lane
// is bit for bit BlockMaskPortable's expression. Predicate 1 of VCMPPD is
// LT_OS: false when either side is NaN, like Go's <.
TEXT ·headBlockMaskAVX2(SB), NOSPLIT, $0-28
	MOVQ h+0(FP), R8
	MOVQ row+8(FP), AX
	MOVQ HeadTest_pairs(R8), CX        // P
	MOVQ AX, DX
	IMULQ CX, DX
	MOVQ HeadTest_head(R8), SI
	LEAQ (SI)(DX*4), SI                // the block: row·P pairs of 4 bytes in
	MOVQ HeadTest_consts(R8), DX
	LEAQ (DX)(AX*4), DX
	MOVQ HeadTest_tails(R8), DI
	LEAQ (DI)(AX*8), DI
	MOVQ HeadTest_floors(R8), BX

	VPBROADCASTD HeadTest_sumAbs(R8), Y2
	VPADDD       (DX), Y2, Y0
	VPADDD       32(DX), Y2, Y1

pair:
	VPBROADCASTD (BX), Y2              // (g₂ₚ, g₂ₚ₊₁) in every lane
	VPMADDWD     (SI), Y2, Y3
	VPMADDWD     32(SI), Y2, Y4
	VPADDD       Y3, Y0, Y0
	VPADDD       Y4, Y1, Y1
	ADDQ         $4, BX
	ADDQ         $64, SI
	DECQ         CX
	JNZ          pair

	VBROADCASTSD HeadTest_factor(R8), Y8
	VBROADCASTSD HeadTest_tail(R8), Y9
	VBROADCASTSD cut+16(FP), Y10

	VCVTDQ2PD    X0, Y4                // rows 0–3
	VEXTRACTI128 $1, Y0, X5
	VCVTDQ2PD    X5, Y5                // rows 4–7
	VCVTDQ2PD    X1, Y6                // rows 8–11
	VEXTRACTI128 $1, Y1, X7
	VCVTDQ2PD    X7, Y7                // rows 12–15

	VMULPD       Y8, Y4, Y4
	VMULPD       Y8, Y5, Y5
	VMULPD       Y8, Y6, Y6
	VMULPD       Y8, Y7, Y7
	VMULPD       (DI), Y9, Y11
	VMULPD       32(DI), Y9, Y12
	VMULPD       64(DI), Y9, Y13
	VMULPD       96(DI), Y9, Y14
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VADDPD       Y13, Y6, Y6
	VADDPD       Y14, Y7, Y7

	VCMPPD       $1, Y10, Y4, Y4       // bound < cut
	VCMPPD       $1, Y10, Y5, Y5
	VCMPPD       $1, Y10, Y6, Y6
	VCMPPD       $1, Y10, Y7, Y7
	VMOVMSKPD    Y4, AX
	VMOVMSKPD    Y5, BX
	VMOVMSKPD    Y6, CX
	VMOVMSKPD    Y7, DX
	SHLL         $4, BX
	SHLL         $8, CX
	SHLL         $12, DX
	ORL          BX, AX
	ORL          DX, CX
	ORL          CX, AX
	VZEROUPPER
	MOVL         AX, ret+24(FP)
	RET

// func dotInt16AVX2(a, b []int16) int64
//
// VPMADDWD leaves a·b pair sums in int32 lanes: every value in
// [−0x7FFF0000, 2³¹], where only 2³¹ — both pairs (−32768, −32768) — does
// not fit and wraps. Adding the bias 0x7FFF0000 mod 2³² maps that range
// onto [0, 0xFFFF0000] exactly, wrapped input included, so the biased sums
// are zero-extended in place (even lanes masked, odd lanes shifted down),
// accumulated as int64, and the bias is taken off once per pair at the end.
// AVX2 has no 64-bit arithmetic shift, so this is also the cheapest way
// to widen in place.
TEXT ·dotInt16AVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI

	VPXOR        Y0, Y0, Y0            // four int64 sums
	MOVL         $0x7FFF0000, AX
	VMOVD        AX, X6
	VPBROADCASTD X6, Y6                // the bias
	VPCMPEQD     Y7, Y7, Y7
	VPSRLQ       $32, Y7, Y7           // the low half of every qword

	MOVQ  CX, DX
	SHRQ  $4, DX
	JZ    eight

sixteen:
	VMOVDQU  (SI), Y1
	VPMADDWD (DI), Y1, Y1
	VPADDD   Y6, Y1, Y1
	VPAND    Y7, Y1, Y2
	VPSRLQ   $32, Y1, Y1
	VPADDQ   Y2, Y0, Y0
	VPADDQ   Y1, Y0, Y0
	ADDQ     $32, SI
	ADDQ     $32, DI
	DECQ     DX
	JNZ      sixteen

eight:
	TESTQ    $8, CX
	JZ       reduce
	VMOVDQU  (SI), X1
	VPMADDWD (DI), X1, X1
	VPADDD   X6, X1, X1
	VPAND    X7, X1, X2
	VPSRLQ   $32, X1, X1
	VPADDQ   X2, X1, X1                // the upper half of Y1 is zero
	VPADDQ   Y1, Y0, Y0

reduce:
	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VPSRLDQ      $8, X0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, AX
	SHRQ         $1, CX                // pairs summed
	IMULQ        $0x7FFF0000, CX
	SUBQ         CX, AX
	VZEROUPPER
	MOVQ         AX, ret+48(FP)
	RET
