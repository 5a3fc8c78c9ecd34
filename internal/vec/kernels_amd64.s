#include "textflag.h"
#include "go_asm.h"

// AVX2 bodies of the scan's integer kernels and float dot product
// (DESIGN.md §3) and of the build's two float64 loops, the Gram band and
// the V₁ transform (DESIGN.md §17), and the AVX-512 VNNI body of the head
// kernel. Nothing but collectVNNI is outside AVX2 and BMI1/2 — no FMA
// anywhere — so a GOAMD64=v1 build runs them behind detect. The float
// bodies multiply and add in separate instructions, the sum always the
// first source of its VADDPD, so every lane is its plain-Go body's chain
// of roundings.

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

// The row of each lane within a block, and the VPERMT2D index that
// interleaves the even rows (first table) with the odd ones (second).
DATA lanes<>+0(SB)/8, $0x0000000100000000
DATA lanes<>+8(SB)/8, $0x0000000300000002
DATA lanes<>+16(SB)/8, $0x0000000500000004
DATA lanes<>+24(SB)/8, $0x0000000700000006
DATA lanes<>+32(SB)/8, $0x0000000900000008
DATA lanes<>+40(SB)/8, $0x0000000B0000000A
DATA lanes<>+48(SB)/8, $0x0000000D0000000C
DATA lanes<>+56(SB)/8, $0x0000000F0000000E
GLOBL lanes<>(SB), RODATA|NOPTR, $64

DATA interleave<>+0(SB)/8, $0x0000001000000000
DATA interleave<>+8(SB)/8, $0x0000001100000001
DATA interleave<>+16(SB)/8, $0x0000001200000002
DATA interleave<>+24(SB)/8, $0x0000001300000003
DATA interleave<>+32(SB)/8, $0x0000001400000004
DATA interleave<>+40(SB)/8, $0x0000001500000005
DATA interleave<>+48(SB)/8, $0x0000001600000006
DATA interleave<>+56(SB)/8, $0x0000001700000007
GLOBL interleave<>(SB), RODATA|NOPTR, $64

// func collectAVX2(h *HeadTest, row, end int, cut float64, out *Survivors) (next, n int)
//
// One pass of block per 16 rows, the query's constants broadcast once for
// the run. Y0 and Y1 hold IU of rows 0–7 and 8–15 as int32: the table is
// sign-extended on the way in, VPMOVSXWD for Σ|f|+w and VPMOVSXBW for a
// pair group ahead of VPMADDWD. Each lane is converted to float64 exactly,
// multiplied by factor, and added to the separately rounded tail·tails —
// two VMULPD and a VADDPD, never an FMA, so a lane is bit for bit
// collectPortable's expression. Predicate 1 of VCMPPD is LT_OS: false
// when either side is NaN, like Go's <, so the complement of its mask is
// the survivors. A block with one stores its 16 lanes at out.IU[n]; if
// every row survives, its rows follow as a vector, and otherwise TZCNT/BLSR
// walk the survivor bits upwards, moving each lane down to the next free
// slot (never above the lane it reads) beside its row number.
// The run ends after the block that brings n to CollectLimit, or at end.
TEXT ·collectAVX2(SB), NOSPLIT, $0-56
	MOVQ h+0(FP), R8
	MOVQ row+8(FP), AX
	MOVQ end+16(FP), R9
	MOVQ out+32(FP), R14
	XORQ R13, R13                      // n
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
	VMOVMSKPD    Y7, R8
	SHLL         $4, BX
	SHLL         $8, CX
	SHLL         $12, R8
	ORL          BX, R12
	ORL          R8, CX
	ORL          CX, R12
	XORL         $0xFFFF, R12          // the survivors
	JNZ          collect

next:
	ADDQ         $16, AX
	ADDQ         $128, DI
	CMPQ         AX, R9
	JLT          block

done:
	VZEROUPPER
	MOVQ         AX, next+40(FP)
	MOVQ         R13, n+48(FP)
	RET

collect:
	LEAQ         Survivors_IU(R14)(R13*4), R8 // lane j of the block
	VMOVDQU      Y0, (R8)
	VMOVDQU      Y1, 32(R8)
	CMPL         R12, $0xFFFF
	JNE          extract
	VMOVQ        AX, X2                // every row survives: the lanes are
	VPBROADCASTD X2, Y2                // in place, the rows in order
	VPADDD       lanes<>(SB), Y2, Y3
	VPADDD       lanes<>+32(SB), Y2, Y4
	VMOVDQU      Y3, Survivors_Rows(R14)(R13*4)
	VMOVDQU      Y4, Survivors_Rows+32(R14)(R13*4)
	ADDQ         $16, R13
	JMP          full

extract:
	TZCNTL       R12, CX
	MOVL         (R8)(CX*4), BX
	MOVL         BX, Survivors_IU(R14)(R13*4)
	LEAL         (AX)(CX*1), BX
	MOVL         BX, Survivors_Rows(R14)(R13*4)
	INCQ         R13
	BLSRL        R12, R12
	JNZ          extract

full:
	CMPQ         R13, $const_CollectLimit
	JLT          next
	ADDQ         $16, AX               // the batch is full after this block
	JMP          done

// func collectVNNI(h *HeadTest, row, end int, cut float64, out *Survivors) (next, n int)
//
// collectAVX2's run with the integer part on VPDPBUSD. Each step reads
// two pair groups (64 bytes), XORs them with 0x80 into the unsigned f+128,
// and multiplies them into Z0 by the step's even-row query operand and
// into Z1 by its odd-row one (SetQuery's layout); an odd P ends with one
// group, loaded under a mask that keeps the next block's bytes out of the
// sum and the load inside the table. Folding the high half of each sum
// onto its low half leaves the even rows in Y0 and the odd rows in Y1,
// VPERMT2D puts the 16 rows in order, and Σ|f|+w plus Σ|g| − 128·Σg makes
// them IU^ℓ, exactly. The float part is collectAVX2's at twice the width:
// separate VMULPD and VADDPD, then predicate 5, NLT_US, the complement of
// LT_OS: true when either side is NaN, so K1 is the survivors as they
// stand. VPCOMPRESSD packs the survivors' lanes and row numbers to the
// bottom of a register, stored whole at out.IU[n] and out.Rows[n].
TEXT ·collectVNNI(SB), NOSPLIT, $0-56
	MOVQ h+0(FP), R8
	MOVQ row+8(FP), AX
	MOVQ end+16(FP), R9
	MOVQ out+32(FP), R14
	XORQ R13, R13                      // n
	MOVQ (HeadTest_tab+HeadTable_lay+HeadLayout_pairs)(R8), R10 // P
	MOVQ AX, BX
	IMULQ R10, BX
	MOVQ HeadTest_tails(R8), DI
	LEAQ (DI)(AX*8), DI
	MOVQ HeadTest_dwords(R8), R11
	MOVQ (HeadTest_tab+HeadTable_head)(R8), SI
	LEAQ (SI)(BX*2), SI
	MOVQ (HeadTest_tab+HeadTable_consts)(R8), DX
	LEAQ (DX)(AX*2), DX
	MOVQ R10, R12
	SHRQ $1, R12                       // whole steps: P/2

	VPBROADCASTD HeadTest_bias(R8), Z14
	VBROADCASTSD HeadTest_factor(R8), Z8
	VBROADCASTSD HeadTest_tail(R8), Z9
	VBROADCASTSD cut+24(FP), Z10
	MOVL         $0x80808080, BX
	VPBROADCASTD BX, Z13
	VMOVDQU32    interleave<>(SB), Z11
	VPBROADCASTD AX, Z12
	VPADDD       lanes<>(SB), Z12, Z12 // each lane's row
	MOVL         $16, BX
	VPBROADCASTD BX, Z15
	MOVL         $0xFF, BX
	KMOVW        BX, K3                // the low group of a step

vblock:
	VPXORD       Z0, Z0, Z0
	VPXORD       Z1, Z1, Z1
	MOVQ         R11, BX
	MOVQ         R12, CX
	TESTQ        CX, CX
	JZ           vodd

vstep:
	VPXORD       (SI), Z13, Z2         // f+128
	VPDPBUSD     (BX), Z2, Z0          // even rows
	VPDPBUSD     64(BX), Z2, Z1        // odd rows
	ADDQ         $64, SI
	ADDQ         $128, BX
	DECQ         CX
	JNZ          vstep

vodd:
	TESTQ        $1, R10
	JZ           vsum
	VMOVDQU32.Z  (SI), K3, Z2
	VPXORD       Z13, Z2, Z2
	VPDPBUSD     (BX), Z2, Z0
	VPDPBUSD     64(BX), Z2, Z1
	ADDQ         $32, SI

vsum:
	VEXTRACTI64X4 $1, Z0, Y2
	VPADDD       Y2, Y0, Y0            // rows 0, 2, …, 14
	VEXTRACTI64X4 $1, Z1, Y3
	VPADDD       Y3, Y1, Y1            // rows 1, 3, …, 15
	VPERMT2D     Z1, Z11, Z0           // rows 0–15
	VPMOVSXWD    (DX), Z2
	VPADDD       Z2, Z0, Z0
	VPADDD       Z14, Z0, Z0           // IU^ℓ
	ADDQ         $32, DX

	VCVTDQ2PD    Y0, Z4                // rows 0–7
	VEXTRACTI64X4 $1, Z0, Y5
	VCVTDQ2PD    Y5, Z5                // rows 8–15
	VMULPD       Z8, Z4, Z4
	VMULPD       Z8, Z5, Z5
	VMULPD       (DI), Z9, Z6
	VMULPD       64(DI), Z9, Z7
	VADDPD       Z6, Z4, Z4
	VADDPD       Z7, Z5, Z5
	VCMPPD       $5, Z10, Z4, K1       // !(bound < cut)
	VCMPPD       $5, Z10, Z5, K2
	KUNPCKBW     K1, K2, K1            // rows 0–7 low, 8–15 high
	KORTESTW     K1, K1
	JNZ          vcollect

vnext:
	ADDQ         $16, AX
	ADDQ         $128, DI
	VPADDD       Z15, Z12, Z12
	CMPQ         AX, R9
	JLT          vblock

vdone:
	VZEROUPPER
	MOVQ         AX, next+40(FP)
	MOVQ         R13, n+48(FP)
	RET

vcollect:
	VPCOMPRESSD  Z0, K1, Z6
	VMOVDQU32    Z6, Survivors_IU(R14)(R13*4)
	VPCOMPRESSD  Z12, K1, Z7
	VMOVDQU32    Z7, Survivors_Rows(R14)(R13*4)
	KMOVW        K1, BX
	POPCNTL      BX, BX
	ADDQ         BX, R13
	CMPQ         R13, $const_CollectLimit
	JLT          vnext
	ADDQ         $16, AX               // the batch is full after this block
	JMP          vdone

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

// Sixteen words of zeros, then sixteen of ones: the sixteen at word r keep
// the last r of sixteen lanes.
DATA tailmask<>+0(SB)/8, $0
DATA tailmask<>+8(SB)/8, $0
DATA tailmask<>+16(SB)/8, $0
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+40(SB)/8, $-1
DATA tailmask<>+48(SB)/8, $-1
DATA tailmask<>+56(SB)/8, $-1
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// func dotTailsAVX2(q []int16, tab []int8, rows []int32, out []int32)
//
// Per row, 16 item floors at a time are sign-extended to int16
// (VPMOVSXBW) and multiplied into the query's by VPMADDWD. The r = dt mod
// 16 last floors are one more step over the row's LAST 16 bytes, against
// the query's last 16 words with the 16−r already summed zeroed once per
// call (Y15), so no load leaves the row. A query word times a
// sign-extended byte is below 2²² in magnitude, so VPMADDWD's pair sums
// are exact and the int32 lanes and their horizontal sum are the sum mod
// 2³², as dotTailsGo's int32 adds are.
TEXT ·dotTailsAVX2(SB), NOSPLIT, $0-96
	MOVQ    q_base+0(FP), SI
	MOVQ    q_len+8(FP), CX            // dt ≥ 16
	MOVQ    tab_base+24(FP), R8
	MOVQ    rows_base+48(FP), R9
	MOVQ    rows_len+56(FP), R10
	MOVQ    out_base+72(FP), R11
	TESTQ   R10, R10
	JZ      tailsDone
	MOVQ    CX, R12
	SHRQ    $4, R12                    // whole steps, at least one
	MOVQ    CX, R13
	ANDQ    $15, R13                   // r
	LEAQ    tailmask<>(SB), AX
	VMOVDQU (AX)(R13*2), Y15
	VPAND   -32(SI)(CX*2), Y15, Y15    // the query's last 16 words, 16−r zeroed

tailsRow:
	MOVLQSX (R9), AX
	IMULQ   CX, AX
	LEAQ    (R8)(AX*1), DI             // the row
	MOVQ    SI, BX
	MOVQ    R12, DX
	VPXOR   Y0, Y0, Y0                 // eight int32 sums

tailsStep:
	VPMOVSXBW (DI), Y1
	VPMADDWD  (BX), Y1, Y1
	VPADDD    Y1, Y0, Y0
	ADDQ      $16, DI
	ADDQ      $32, BX
	DECQ      DX
	JNZ       tailsStep
	TESTQ     R13, R13
	JZ        tailsSum
	VPMOVSXBW -16(DI)(R13*1), Y1       // the row's last 16 floors
	VPMADDWD  Y15, Y1, Y1
	VPADDD    Y1, Y0, Y0

tailsSum:
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, (R11)
	ADDQ         $4, R9
	ADDQ         $4, R11
	DECQ         R10
	JNZ          tailsRow

tailsDone:
	VZEROUPPER
	RET

// func dotTailAVX2(q []int16, p []int8) int32
//
// dotTailsAVX2 for the one row p: no row number to scale, no output
// slice, and the last step's query mask built only when dt mod 16 ≠ 0.
TEXT ·dotTailAVX2(SB), NOSPLIT, $0-52
	MOVQ    q_base+0(FP), SI
	MOVQ    q_len+8(FP), CX            // dt ≥ 16
	MOVQ    p_base+24(FP), DI
	MOVQ    SI, BX
	MOVQ    CX, DX
	SHRQ    $4, DX                     // whole steps, at least one
	MOVQ    CX, R13
	ANDQ    $15, R13                   // r
	VPXOR   Y0, Y0, Y0                 // eight int32 sums

tailStep:
	VPMOVSXBW (DI), Y1
	VPMADDWD  (BX), Y1, Y1
	VPADDD    Y1, Y0, Y0
	ADDQ      $16, DI
	ADDQ      $32, BX
	DECQ      DX
	JNZ       tailStep
	TESTQ     R13, R13
	JZ        tailSum
	LEAQ      tailmask<>(SB), AX
	VMOVDQU   (AX)(R13*2), Y2
	VPAND     -32(SI)(CX*2), Y2, Y2    // the query's last 16 words, 16−r zeroed
	VPMOVSXBW -16(DI)(R13*1), Y1       // the row's last 16 floors
	VPMADDWD  Y2, Y1, Y1
	VPADDD    Y1, Y0, Y0

tailSum:
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, ret+48(FP)
	VZEROUPPER
	RET

// func dotAVX2(a, b []float64) float64
//
// dotGo's sum: Y0 holds (s₀, s₁, s₂, s₃) and takes four products a step,
// each rounded by VMULPD before VADDPD adds it to its accumulator (the
// first source). Then ((s₀+s₁)+s₂)+s₃ and the len mod 4 last terms in
// order, one VMULSD and one VADDSD each: every rounding is dotGo's.
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	MOVQ   CX, DX
	SHRQ   $2, DX
	JZ     dotSum

dotFour:
	VMOVUPD (SI), Y1
	VMULPD  (DI), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     dotFour

dotSum:
	VEXTRACTF128 $1, Y0, X1            // s₂, s₃
	VUNPCKHPD    X0, X0, X2            // s₁
	VADDSD       X2, X0, X0
	VADDSD       X1, X0, X0
	VUNPCKHPD    X1, X1, X1            // s₃
	VADDSD       X1, X0, X0
	ANDQ         $3, CX
	JZ           dotDone

dotOne:
	VMOVSD (SI), X1
	VMULSD (DI), X1, X1
	VADDSD X1, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    dotOne

dotDone:
	VZEROUPPER
	VMOVSD X0, ret+48(FP)
	RET

// func gramBlocksAVX2(g, m []float64, blocks, d, alo, ahi int)
//
// gramRows's 4-row pass over blocks·4 rows of m, four b at a time: for
// each a in [alo, ahi), Y4–Y7 hold m[i+r][a] (r = 0…3) broadcast, and
// g[a][b…b+3] takes v₀·r₀, v₁·r₁, v₂·r₂, v₃·r₃ in that order, each product
// and each sum rounded, between one load and one store. The (d−a) mod 4
// last entries of a row take the same four steps one lane wide.
TEXT ·gramBlocksAVX2(SB), NOSPLIT, $0-80
	MOVQ g_base+0(FP), R10
	MOVQ m_base+24(FP), R9
	MOVQ blocks+48(FP), R11
	MOVQ d+56(FP), R12
	MOVQ R12, BX
	SHLQ $3, BX                        // one row of m, in bytes
	LEAQ (BX)(BX*2), DX                // three

gramBlock:
	MOVQ alo+64(FP), R8

gramRow:
	MOVQ         R8, SI
	IMULQ        R12, SI
	ADDQ         R8, SI
	LEAQ         (R10)(SI*8), SI       // &g[a][a]
	LEAQ         (R9)(R8*8), DI        // &m[i][a]
	VBROADCASTSD (DI), Y4
	VBROADCASTSD (DI)(BX*1), Y5
	VBROADCASTSD (DI)(BX*2), Y6
	VBROADCASTSD (DI)(DX*1), Y7
	MOVQ         R12, AX
	SUBQ         R8, AX                // d − a entries
	MOVQ         AX, CX
	SHRQ         $2, CX
	JZ           gramTail

gramQuad:
	VMOVUPD (SI), Y0
	VMULPD  (DI), Y4, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (DI)(BX*1), Y5, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (DI)(BX*2), Y6, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (DI)(DX*1), Y7, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gramQuad

gramTail:
	ANDQ $3, AX
	JZ   gramNext

gramOne:
	VMOVSD (SI), X0
	VMULSD (DI), X4, X1
	VADDSD X1, X0, X0
	VMULSD (DI)(BX*1), X5, X1
	VADDSD X1, X0, X0
	VMULSD (DI)(BX*2), X6, X1
	VADDSD X1, X0, X0
	VMULSD (DI)(DX*1), X7, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (SI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   AX
	JNZ    gramOne

gramNext:
	INCQ R8
	CMPQ R8, ahi+72(FP)
	JLT  gramRow
	LEAQ (R9)(BX*4), R9                // the next four rows of m
	DECQ R11
	JNZ  gramBlock
	VZEROUPPER
	RET

// func mulBlocksAVX2(out, m, panels, scale []float64, mask *[8]int64, blocks, inner, cols int)
//
// mulRows over blocks·4 rows of m and out, 4 rows × 8 columns a block:
// Y0–Y7 are the sums of rows r = 0…3 (columns 0–3 in Y2r, 4–7 in Y2r+1),
// started at +0. Per k, panels gives other[k][j…j+7] (Y8, Y9), each row
// broadcasts m[r][k] (Y10), and the two products (Y11, Y12) are added
// into its sums. After the last k the sums are multiplied by scale[j…j+7]
// unless scale is nil, and stored; a last panel short of 8 columns is
// stored through VMASKMOVPD with mask's lanes (Y13, Y14), so only real
// columns of out are written. panels holds one panel after another, k
// rows of 8 each, so DI walks it from start to end once per block.
TEXT ·mulBlocksAVX2(SB), NOSPLIT, $0-128
	MOVQ    out_base+0(FP), R9
	MOVQ    m_base+24(FP), R10
	MOVQ    scale_base+72(FP), R12
	MOVQ    mask+96(FP), AX
	VMOVDQU (AX), Y13
	VMOVDQU 32(AX), Y14
	MOVQ    blocks+104(FP), R13
	MOVQ    inner+112(FP), BX
	SHLQ    $3, BX                     // one row of m, in bytes
	LEAQ    (BX)(BX*2), DX             // three
	MOVQ    cols+120(FP), AX
	SHLQ    $3, AX                     // one row of out, in bytes

mulBlock:
	MOVQ panels_base+48(FP), DI
	XORQ R8, R8                        // the panel's first column, in bytes

mulPanel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R10, SI
	MOVQ   inner+112(FP), CX

mulK:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (SI)(BX*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (SI)(BX*2), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (SI)(DX*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          mulK

	TESTQ   R12, R12
	JZ      mulStore
	VMOVUPD (R12)(R8*1), Y8
	VMOVUPD 32(R12)(R8*1), Y9
	VMULPD  Y8, Y0, Y0
	VMULPD  Y9, Y1, Y1
	VMULPD  Y8, Y2, Y2
	VMULPD  Y9, Y3, Y3
	VMULPD  Y8, Y4, Y4
	VMULPD  Y9, Y5, Y5
	VMULPD  Y8, Y6, Y6
	VMULPD  Y9, Y7, Y7

mulStore:
	LEAQ    (R9)(R8*1), SI
	MOVQ    AX, CX
	SUBQ    R8, CX                     // bytes of the row from the panel on
	CMPQ    CX, $64
	JLT     mulPart
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	ADDQ    AX, SI
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	ADDQ    AX, SI
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, 32(SI)
	ADDQ    AX, SI
	VMOVUPD Y6, (SI)
	VMOVUPD Y7, 32(SI)
	ADDQ    $64, R8
	CMPQ    R8, AX
	JLT     mulPanel
	JMP     mulNext

mulPart:                               // the last panel, short of columns
	VMASKMOVPD Y0, Y13, (SI)
	VMASKMOVPD Y1, Y14, 32(SI)
	ADDQ       AX, SI
	VMASKMOVPD Y2, Y13, (SI)
	VMASKMOVPD Y3, Y14, 32(SI)
	ADDQ       AX, SI
	VMASKMOVPD Y4, Y13, (SI)
	VMASKMOVPD Y5, Y14, 32(SI)
	ADDQ       AX, SI
	VMASKMOVPD Y6, Y13, (SI)
	VMASKMOVPD Y7, Y14, 32(SI)

mulNext:
	LEAQ (R9)(AX*4), R9                // the next four rows of out
	LEAQ (R10)(BX*4), R10              // and of m
	DECQ R13
	JNZ  mulBlock
	VZEROUPPER
	RET

// Lanes to keep for a last pass of 1–3 columns: the four qwords from
// entry 3 − r on have r lanes set.
DATA transformMask<>+0(SB)/8, $-1
DATA transformMask<>+8(SB)/8, $-1
DATA transformMask<>+16(SB)/8, $-1
DATA transformMask<>+24(SB)/8, $0
DATA transformMask<>+32(SB)/8, $0
DATA transformMask<>+40(SB)/8, $0
DATA transformMask<>+48(SB)/8, $0
GLOBL transformMask<>(SB), RODATA|NOPTR, $56

// func transformAVX2(dst, u, q, scale []float64, stride int)
//
// transformGo with its sums in registers: 16 columns a pass (Y0–Y3), then
// 4 (Y0), then the last 1–3 under a mask (Y13). Each pass walks the rows
// in increasing i; a q[i] that compares equal to zero (VUCOMISD: ZF set,
// PF clear — a NaN is unordered and taken, as Go's == leaves it) skips its
// row, and any other is broadcast (Y4) and multiplied by the row's
// columns, each product added into its sum. The sums start at +0 and are
// multiplied by scale before the store.
TEXT ·transformAVX2(SB), NOSPLIT, $0-104
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), R8          // columns left
	MOVQ   u_base+24(FP), R9          // u at the pass's first column
	MOVQ   q_base+48(FP), R10
	MOVQ   q_len+56(FP), R11
	MOVQ   scale_base+72(FP), R12
	MOVQ   stride+96(FP), BX
	SHLQ   $3, BX                     // one row of u, in bytes
	VXORPD X14, X14, X14

t16:
	CMPQ   R8, $16
	JLT    t4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R9, SI
	MOVQ   R10, DX
	MOVQ   R11, CX

t16Row:
	VMOVSD       (DX), X4
	VUCOMISD     X14, X4
	JNE          t16Use
	JPS          t16Use
	JMP          t16Next

t16Use:
	VBROADCASTSD X4, Y4
	VMULPD       (SI), Y4, Y5
	VMULPD       32(SI), Y4, Y6
	VMULPD       64(SI), Y4, Y7
	VMULPD       96(SI), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3

t16Next:
	ADDQ    BX, SI
	ADDQ    $8, DX
	DECQ    CX
	JNZ     t16Row
	VMULPD  (R12), Y0, Y0
	VMULPD  32(R12), Y1, Y1
	VMULPD  64(R12), Y2, Y2
	VMULPD  96(R12), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R9
	ADDQ    $128, R12
	SUBQ    $16, R8
	JMP     t16

t4:
	TESTQ  R8, R8
	JZ     tDone
	LEAQ   transformMask<>(SB), AX
	CMPQ   R8, $4
	JGE    t4All
	MOVQ   $3, CX
	SUBQ   R8, CX
	VMOVDQU (AX)(CX*8), Y13           // the last pass: R8 lanes
	JMP    t4Pass

t4All:
	VPCMPEQQ Y13, Y13, Y13            // every lane

t4Pass:
	VXORPD Y0, Y0, Y0
	MOVQ   R9, SI
	MOVQ   R10, DX
	MOVQ   R11, CX

t4Row:
	VMOVSD       (DX), X4
	VUCOMISD     X14, X4
	JNE          t4Use
	JPS          t4Use
	JMP          t4Next

t4Use:
	VBROADCASTSD X4, Y4
	VMASKMOVPD   (SI), Y13, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0

t4Next:
	ADDQ       BX, SI
	ADDQ       $8, DX
	DECQ       CX
	JNZ        t4Row
	VMASKMOVPD (R12), Y13, Y5
	VMULPD     Y5, Y0, Y0
	VMASKMOVPD Y0, Y13, (DI)
	ADDQ       $32, DI
	ADDQ       $32, R9
	ADDQ       $32, R12
	SUBQ       $4, R8
	JG         t4
	// R8 ≤ 0: the masked pass was the last.

tDone:
	VZEROUPPER
	RET
