#include "textflag.h"
#include "go_asm.h"

// AVX2 bodies of the integer kernels (DESIGN.md §3). Nothing here is
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

// func headBlockRunAVX2(h *HeadTest, row, end int, cut float64, iu *[16]int32) (at int, pruned uint32)
//
// One pass of block per 16 rows, the query's constants broadcast once for
// the run. Y0 and Y1 hold IU of rows 0–7 and 8–15 as int32: the table is
// sign-extended on the way in, VPMOVSXWD for Σ|f|+w and VPMOVSXBW for a
// pair group ahead of VPMADDWD. Each lane is converted to float64 exactly,
// multiplied by factor, and added to the separately rounded tail·tails —
// two VMULPD and a VADDPD, never an FMA, so a lane is bit for bit
// BlockRunPortable's expression. Predicate 1 of VCMPPD is LT_OS: false
// when either side is NaN, like Go's <. The run ends at the first block
// whose 16 mask bits are not all set, its lanes stored to iu, or at end.
TEXT ·headBlockRunAVX2(SB), NOSPLIT, $0-52
	MOVQ h+0(FP), R8
	MOVQ row+8(FP), AX
	MOVQ end+16(FP), R9
	MOVQ (HeadTest_tab+HeadTable_lay+HeadLayout_pairs)(R8), R10 // P
	MOVQ AX, BX
	IMULQ R10, BX                      // the block: row·P pairs in
	MOVQ HeadTest_tails(R8), DI
	LEAQ (DI)(AX*8), DI
	MOVQ HeadTest_floors(R8), R11
	MOVQ (HeadTest_tab+HeadTable_head)(R8), SI
	LEAQ (SI)(BX*2), SI                // 2 bytes a pair
	MOVQ (HeadTest_tab+HeadTable_consts)(R8), DX
	LEAQ (DX)(AX*2), DX

	VPBROADCASTD HeadTest_sumAbs(R8), Y14
	VBROADCASTSD HeadTest_factor(R8), Y8
	VBROADCASTSD HeadTest_tail(R8), Y9
	VBROADCASTSD cut+24(FP), Y10

block:
	MOVQ         R11, BX
	MOVQ         R10, CX
	VPMOVSXWD    (DX), Y0
	VPMOVSXWD    16(DX), Y1
	VPADDD       Y14, Y0, Y0
	VPADDD       Y14, Y1, Y1
	ADDQ         $32, DX

pair:
	VPBROADCASTD (BX), Y2              // (g₂ₚ, g₂ₚ₊₁) in every lane
	VPMOVSXBW    (SI), Y3
	VPMOVSXBW    16(SI), Y4
	VPMADDWD     Y2, Y3, Y3
	VPMADDWD     Y2, Y4, Y4
	VPADDD       Y3, Y0, Y0
	VPADDD       Y4, Y1, Y1
	ADDQ         $4, BX
	ADDQ         $32, SI
	DECQ         CX
	JNZ          pair

bound:
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
	VMULPD       (DI), Y9, Y2
	VMULPD       32(DI), Y9, Y3
	VMULPD       64(DI), Y9, Y11
	VMULPD       96(DI), Y9, Y12
	VADDPD       Y2, Y4, Y4
	VADDPD       Y3, Y5, Y5
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7

	VCMPPD       $1, Y10, Y4, Y4       // bound < cut
	VCMPPD       $1, Y10, Y5, Y5
	VCMPPD       $1, Y10, Y6, Y6
	VCMPPD       $1, Y10, Y7, Y7
	VMOVMSKPD    Y4, R12
	VMOVMSKPD    Y5, BX
	VMOVMSKPD    Y6, CX
	VMOVMSKPD    Y7, R13
	SHLL         $4, BX
	SHLL         $8, CX
	SHLL         $12, R13
	ORL          BX, R12
	ORL          R13, CX
	ORL          CX, R12
	CMPL         R12, $0xFFFF
	JNE          stop
	ADDQ         $16, AX
	ADDQ         $128, DI
	CMPQ         AX, R9
	JLT          block
	MOVQ         R9, AX                // every row pruned: (end, all ones)

stop:
	MOVQ         iu+32(FP), BX
	VMOVDQU      Y0, (BX)
	VMOVDQU      Y1, 32(BX)
	VZEROUPPER
	MOVQ         AX, at+40(FP)
	MOVL         R12, pruned+48(FP)
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

// func dotTailAVX2(q []int16, p []int8) int64
//
// 16 item floors at a time are sign-extended to int16 (VPMOVSXBW) and
// multiplied into the query's by VPMADDWD. Both sides lie in [−128, 127],
// so a pair sum is at most 2·2¹⁴ and the int32 lanes accumulate without
// widening; the caller keeps the whole sum below 2³¹, so the lanes and
// their horizontal sum are exact, and the result is sign-extended once.
TEXT ·dotTailAVX2(SB), NOSPLIT, $0-56
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ p_base+24(FP), DI

	VPXOR     Y0, Y0, Y0               // eight int32 sums
	MOVQ      CX, DX
	SHRQ      $4, DX
	JZ        eightTail

sixteenTail:
	VPMOVSXBW (DI), Y1
	VPMADDWD  (SI), Y1, Y1
	VPADDD    Y1, Y0, Y0
	ADDQ      $32, SI
	ADDQ      $16, DI
	DECQ      DX
	JNZ       sixteenTail

eightTail:
	TESTQ     $8, CX
	JZ        reduceTail
	VPMOVSXBW (DI), X1
	VPMADDWD  (SI), X1, X1
	VPADDD    Y1, Y0, Y0               // the upper half of Y1 is zero

reduceTail:
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	MOVLQSX      AX, AX
	VZEROUPPER
	MOVQ         AX, ret+48(FP)
	RET
