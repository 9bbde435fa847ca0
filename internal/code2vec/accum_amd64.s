#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

// func accum4x8(a0, a1, a2, a3, xx, w []float64, stride, k0 int)
//
// Eight outputs per block: Y0-Y7 hold (a0[o+j], a1[o+j], a2[o+j], a3[o+j])
// for j = 0..7. Per term k, Y8 holds xx[4k..4k+3] and each W[o+j][k0+k] is
// broadcast to all four lanes with VBROADCASTSD, multiplied by Y8 and added
// onto its accumulator. W's eight rows are addressed from R8 (rows 0-3) and
// R11 (rows 4-7) with the row stride in R9 and three times it in R13. The
// four accumulator rows are reloaded from the frame around each block, at
// byte offset SI. BP, R14, R15 and Y15 are left alone.
TEXT ·accum4x8(SB), NOSPLIT, $0-160
	MOVQ a0_len+8(FP), BX
	SHRQ $3, BX
	JZ   done
	MOVQ xx_base+96(FP), DX
	MOVQ xx_len+104(FP), R12
	SHRQ $2, R12
	JZ   done
	MOVQ w_base+120(FP), AX
	MOVQ stride+144(FP), R9
	MOVQ k0+152(FP), CX
	LEAQ (AX)(CX*8), AX
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R13
	XORQ SI, SI

block:
	MOVQ         a0_base+0(FP), R8
	MOVQ         a1_base+24(FP), R10
	MOVQ         a2_base+48(FP), R11
	MOVQ         a3_base+72(FP), CX
	ADDQ         SI, R8
	ADDQ         SI, R10
	ADDQ         SI, R11
	ADDQ         SI, CX
	VMOVSD       0(R8), X0
	VMOVHPD      0(R10), X0, X0
	VMOVSD       0(R11), X8
	VMOVHPD      0(CX), X8, X8
	VINSERTF128  $1, X8, Y0, Y0
	VMOVSD       8(R8), X1
	VMOVHPD      8(R10), X1, X1
	VMOVSD       8(R11), X8
	VMOVHPD      8(CX), X8, X8
	VINSERTF128  $1, X8, Y1, Y1
	VMOVSD       16(R8), X2
	VMOVHPD      16(R10), X2, X2
	VMOVSD       16(R11), X8
	VMOVHPD      16(CX), X8, X8
	VINSERTF128  $1, X8, Y2, Y2
	VMOVSD       24(R8), X3
	VMOVHPD      24(R10), X3, X3
	VMOVSD       24(R11), X8
	VMOVHPD      24(CX), X8, X8
	VINSERTF128  $1, X8, Y3, Y3
	VMOVSD       32(R8), X4
	VMOVHPD      32(R10), X4, X4
	VMOVSD       32(R11), X8
	VMOVHPD      32(CX), X8, X8
	VINSERTF128  $1, X8, Y4, Y4
	VMOVSD       40(R8), X5
	VMOVHPD      40(R10), X5, X5
	VMOVSD       40(R11), X8
	VMOVHPD      40(CX), X8, X8
	VINSERTF128  $1, X8, Y5, Y5
	VMOVSD       48(R8), X6
	VMOVHPD      48(R10), X6, X6
	VMOVSD       48(R11), X8
	VMOVHPD      48(CX), X8, X8
	VINSERTF128  $1, X8, Y6, Y6
	VMOVSD       56(R8), X7
	VMOVHPD      56(R10), X7, X7
	VMOVSD       56(R11), X8
	VMOVHPD      56(CX), X8, X8
	VINSERTF128  $1, X8, Y7, Y7
	MOVQ         AX, R8
	LEAQ         (AX)(R9*4), R11
	MOVQ         DX, R10
	MOVQ         R12, CX

term:
	VMOVUPD      (R10), Y8
	VBROADCASTSD (R8), Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       Y9, Y0, Y0
	VBROADCASTSD (R8)(R9*1), Y10
	VMULPD       Y8, Y10, Y10
	VADDPD       Y10, Y1, Y1
	VBROADCASTSD (R8)(R9*2), Y11
	VMULPD       Y8, Y11, Y11
	VADDPD       Y11, Y2, Y2
	VBROADCASTSD (R8)(R13*1), Y12
	VMULPD       Y8, Y12, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (R11), Y13
	VMULPD       Y8, Y13, Y13
	VADDPD       Y13, Y4, Y4
	VBROADCASTSD (R11)(R9*1), Y14
	VMULPD       Y8, Y14, Y14
	VADDPD       Y14, Y5, Y5
	VBROADCASTSD (R11)(R9*2), Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       Y9, Y6, Y6
	VBROADCASTSD (R11)(R13*1), Y10
	VMULPD       Y8, Y10, Y10
	VADDPD       Y10, Y7, Y7
	ADDQ         $8, R8
	ADDQ         $8, R11
	ADDQ         $32, R10
	DECQ         CX
	JNZ          term

	MOVQ         a0_base+0(FP), R8
	MOVQ         a1_base+24(FP), R10
	MOVQ         a2_base+48(FP), R11
	MOVQ         a3_base+72(FP), CX
	ADDQ         SI, R8
	ADDQ         SI, R10
	ADDQ         SI, R11
	ADDQ         SI, CX
	VMOVSD       X0, 0(R8)
	VMOVHPD      X0, 0(R10)
	VEXTRACTF128 $1, Y0, X8
	VMOVSD       X8, 0(R11)
	VMOVHPD      X8, 0(CX)
	VMOVSD       X1, 8(R8)
	VMOVHPD      X1, 8(R10)
	VEXTRACTF128 $1, Y1, X8
	VMOVSD       X8, 8(R11)
	VMOVHPD      X8, 8(CX)
	VMOVSD       X2, 16(R8)
	VMOVHPD      X2, 16(R10)
	VEXTRACTF128 $1, Y2, X8
	VMOVSD       X8, 16(R11)
	VMOVHPD      X8, 16(CX)
	VMOVSD       X3, 24(R8)
	VMOVHPD      X3, 24(R10)
	VEXTRACTF128 $1, Y3, X8
	VMOVSD       X8, 24(R11)
	VMOVHPD      X8, 24(CX)
	VMOVSD       X4, 32(R8)
	VMOVHPD      X4, 32(R10)
	VEXTRACTF128 $1, Y4, X8
	VMOVSD       X8, 32(R11)
	VMOVHPD      X8, 32(CX)
	VMOVSD       X5, 40(R8)
	VMOVHPD      X5, 40(R10)
	VEXTRACTF128 $1, Y5, X8
	VMOVSD       X8, 40(R11)
	VMOVHPD      X8, 40(CX)
	VMOVSD       X6, 48(R8)
	VMOVHPD      X6, 48(R10)
	VEXTRACTF128 $1, Y6, X8
	VMOVSD       X8, 48(R11)
	VMOVHPD      X8, 48(CX)
	VMOVSD       X7, 56(R8)
	VMOVHPD      X7, 56(R10)
	VEXTRACTF128 $1, Y7, X8
	VMOVSD       X8, 56(R11)
	VMOVHPD      X8, 56(CX)
	ADDQ         $64, SI
	LEAQ         (AX)(R9*8), AX
	DECQ         BX
	JNZ          block

	VZEROUPPER

done:
	RET

// func accum8(acc []float64, src, dst *[8]int, out int, xx, w []float64, stride, k0 int)
//
// One ZMM lane per row j, whose sums start at acc[src[j]] and end at
// acc[dst[j]]; out >= 8. Eight outputs per block: the eight parent rows'
// sums for outputs o..o+7 are loaded, one row per register, and transposed
// so that Z16-Z23 hold outputs o..o+7 with one row per lane. Per term k, Z8 holds xx[8k..8k+7], and each
// W[o+j][k0+k] is broadcast from memory by VMULPD.BCST into Z9-Z13 and
// added onto its accumulator. The sums are then transposed back and
// stored to the rows dst under the output mask K1. The out % 8 tail outputs run as one
// more block, at o = out-8: it recomputes outputs that earlier blocks
// already stored, and K1 then stores only the tail's lanes. W's rows are
// addressed as in accum4x8: from R8 (rows 0-3) and R11 (rows 4-7) with the
// row stride in R9 and three times it in R13. DI points at acc[o] and AX
// at W[o][k0]. BP, R14, R15 and Z15 are left alone.
#define TERM(m, t, z) VMULPD.BCST m, Z8, t; VADDPD t, z, z

// TRANSPOSE8 transposes the 8x8 matrix whose rows are a0-a7 into b0-b7
// (bj's lane i is ai's lane j), clobbering a0-a7.
#define TRANSPOSE8(a0, a1, a2, a3, a4, a5, a6, a7, b0, b1, b2, b3, b4, b5, b6, b7) \
	VUNPCKLPD  a1, a0, b0; VUNPCKHPD a1, a0, b1; \
	VUNPCKLPD  a3, a2, b2; VUNPCKHPD a3, a2, b3; \
	VUNPCKLPD  a5, a4, b4; VUNPCKHPD a5, a4, b5; \
	VUNPCKLPD  a7, a6, b6; VUNPCKHPD a7, a6, b7; \
	VSHUFF64X2 $0x88, b2, b0, a0; VSHUFF64X2 $0xdd, b2, b0, a1; \
	VSHUFF64X2 $0x88, b3, b1, a2; VSHUFF64X2 $0xdd, b3, b1, a3; \
	VSHUFF64X2 $0x88, b6, b4, a4; VSHUFF64X2 $0xdd, b6, b4, a5; \
	VSHUFF64X2 $0x88, b7, b5, a6; VSHUFF64X2 $0xdd, b7, b5, a7; \
	VSHUFF64X2 $0x88, a4, a0, b0; VSHUFF64X2 $0xdd, a4, a0, b4; \
	VSHUFF64X2 $0x88, a5, a1, b2; VSHUFF64X2 $0xdd, a5, a1, b6; \
	VSHUFF64X2 $0x88, a6, a2, b1; VSHUFF64X2 $0xdd, a6, a2, b5; \
	VSHUFF64X2 $0x88, a7, a3, b3; VSHUFF64X2 $0xdd, a7, a3, b7

TEXT ·accum8(SB), NOSPLIT, $0-112
	MOVQ   out+40(FP), BX
	MOVQ   BX, SI
	SHRQ   $3, SI
	JZ     done8
	MOVQ   xx_len+56(FP), R12
	SHRQ   $3, R12
	JZ     done8
	MOVQ   acc_base+0(FP), DI
	MOVQ   xx_base+48(FP), DX
	MOVQ   w_base+72(FP), AX
	MOVQ   stride+96(FP), R9
	MOVQ   k0+104(FP), CX
	LEAQ   (AX)(CX*8), AX
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), R13
	ANDQ   $7, BX
	KXNORW K0, K0, K1

block8:
	MOVQ    src+24(FP), R8
	MOVQ    0(R8), R10
	VMOVUPD (DI)(R10*8), Z0
	MOVQ    8(R8), R11
	VMOVUPD (DI)(R11*8), Z1
	MOVQ    16(R8), R10
	VMOVUPD (DI)(R10*8), Z2
	MOVQ    24(R8), R11
	VMOVUPD (DI)(R11*8), Z3
	MOVQ    32(R8), R10
	VMOVUPD (DI)(R10*8), Z4
	MOVQ    40(R8), R11
	VMOVUPD (DI)(R11*8), Z5
	MOVQ    48(R8), R10
	VMOVUPD (DI)(R10*8), Z6
	MOVQ    56(R8), R11
	VMOVUPD (DI)(R11*8), Z7
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	MOVQ AX, R8
	LEAQ (AX)(R9*4), R11
	MOVQ DX, R10
	MOVQ R12, CX

term8:
	VMOVUPD (R10), Z8
	TERM((R8), Z9, Z16)
	TERM((R8)(R9*1), Z10, Z17)
	TERM((R8)(R9*2), Z11, Z18)
	TERM((R8)(R13*1), Z12, Z19)
	TERM((R11), Z13, Z20)
	TERM((R11)(R9*1), Z9, Z21)
	TERM((R11)(R9*2), Z10, Z22)
	TERM((R11)(R13*1), Z11, Z23)
	ADDQ    $8, R8
	ADDQ    $8, R11
	ADDQ    $64, R10
	DECQ    CX
	JNZ     term8

	TRANSPOSE8(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	MOVQ    dst+32(FP), R8
	MOVQ    0(R8), R10
	VMOVUPD Z0, K1, (DI)(R10*8)
	MOVQ    8(R8), R11
	VMOVUPD Z1, K1, (DI)(R11*8)
	MOVQ    16(R8), R10
	VMOVUPD Z2, K1, (DI)(R10*8)
	MOVQ    24(R8), R11
	VMOVUPD Z3, K1, (DI)(R11*8)
	MOVQ    32(R8), R10
	VMOVUPD Z4, K1, (DI)(R10*8)
	MOVQ    40(R8), R11
	VMOVUPD Z5, K1, (DI)(R11*8)
	MOVQ    48(R8), R10
	VMOVUPD Z6, K1, (DI)(R10*8)
	MOVQ    56(R8), R11
	VMOVUPD Z7, K1, (DI)(R11*8)
	ADDQ $64, DI
	LEAQ (AX)(R9*8), AX
	DECQ SI
	JNZ  block8

	// The tail: BX = out % 8 outputs left. Step back 8 - BX outputs, store
	// only the last BX lanes (K1 = 0xff << (8 - BX)), and run one block.
	TESTQ  BX, BX
	JZ     zdone8
	MOVQ   $8, CX
	SUBQ   BX, CX
	SHLQ   $3, CX
	SUBQ   CX, DI
	MOVQ   R9, R10
	IMULQ  CX, R10
	SHRQ   $3, R10
	SUBQ   R10, AX
	SHRQ   $3, CX
	MOVL   $0xff, R10
	SHLL   CX, R10
	KMOVW  R10, K1
	XORQ   BX, BX
	MOVQ   $1, SI
	JMP    block8

zdone8:
	VZEROUPPER

done8:
	RET

// Constants of tanhBlocks: the sign-clearing mask, the bound of math.tanh's
// rational branch, and its coefficients tanhP[0..2] and tanhQ[0..2], as
// written in Go's math/tanh.go.
DATA tanhdata<>+0(SB)/8, $0x7fffffffffffffff
DATA tanhdata<>+8(SB)/8, $0.625
DATA tanhdata<>+16(SB)/8, $-9.64399179425052238628e-1
DATA tanhdata<>+24(SB)/8, $-9.92877231001918586564e1
DATA tanhdata<>+32(SB)/8, $-1.61468768441708447952e3
DATA tanhdata<>+40(SB)/8, $1.12811678491632931402e2
DATA tanhdata<>+48(SB)/8, $2.23548839060100448583e3
DATA tanhdata<>+56(SB)/8, $4.84406305325125486048e3
GLOBL tanhdata<>(SB), RODATA|NOPTR, $64

// func tanhBlocks(x []float64) int
//
// Blocks of four from x[0]: a block whose lanes all satisfy 0 < |x| < 0.625
// (so no ±0 and no NaN) is replaced by
//
//	s = x*x
//	x + ((x*s)*((P0*s+P1)*s+P2)) / (((s+Q0)*s+Q1)*s+Q2)
//
// one VEX operation per Go operation of math.tanh's rational branch, in its
// order. The first block with any other lane stops the sweep, unchanged;
// the result is the number of elements replaced. Y5-Y13 hold the
// constants, broadcast; Y0-Y4 are the working set. BP, R14, R15 and Y15
// are left alone.
TEXT ·tanhBlocks(SB), NOSPLIT, $0-32
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	XORQ         AX, AX
	SHRQ         $2, CX
	JZ           tanhdone
	VBROADCASTSD tanhdata<>+0(SB), Y5
	VBROADCASTSD tanhdata<>+8(SB), Y6
	VXORPD       Y7, Y7, Y7
	VBROADCASTSD tanhdata<>+16(SB), Y8
	VBROADCASTSD tanhdata<>+24(SB), Y9
	VBROADCASTSD tanhdata<>+32(SB), Y10
	VBROADCASTSD tanhdata<>+40(SB), Y11
	VBROADCASTSD tanhdata<>+48(SB), Y12
	VBROADCASTSD tanhdata<>+56(SB), Y13

tanhblock:
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    Y5, Y0, Y1
	VCMPPD    $0x11, Y6, Y1, Y2 // |x| < 0.625, ordered: false on NaN
	VCMPPD    $0x11, Y1, Y7, Y3 // 0 < |x|
	VANDPD    Y3, Y2, Y2
	VMOVMSKPD Y2, DX
	CMPQ      DX, $15
	JNE       tanhstop
	VMULPD    Y0, Y0, Y1        // s
	VMULPD    Y8, Y1, Y2
	VADDPD    Y9, Y2, Y2
	VMULPD    Y1, Y2, Y2
	VADDPD    Y10, Y2, Y2       // (P0*s+P1)*s+P2
	VADDPD    Y11, Y1, Y3
	VMULPD    Y1, Y3, Y3
	VADDPD    Y12, Y3, Y3
	VMULPD    Y1, Y3, Y3
	VADDPD    Y13, Y3, Y3       // ((s+Q0)*s+Q1)*s+Q2
	VMULPD    Y1, Y0, Y4
	VMULPD    Y2, Y4, Y4
	VDIVPD    Y3, Y4, Y4
	VADDPD    Y4, Y0, Y0
	VMOVUPD   Y0, (SI)(AX*8)
	ADDQ      $4, AX
	DECQ      CX
	JNZ       tanhblock

tanhstop:
	VZEROUPPER

tanhdone:
	MOVQ AX, ret+24(FP)
	RET

// func axpy4(a float64, x, y []float64)
//
// y[k] += a*x[k] for k < len(x): four at a time with VMULPD then VADDPD,
// then a tail of len(x) % 4 with VMULSD then VADDSD. The caller makes sure
// len(y) >= len(x).
TEXT ·axpy4(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	MOVQ         CX, BX
	SHRQ         $2, BX
	JZ           axpytail

axpyblock:
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    BX
	JNZ     axpyblock

axpytail:
	ANDQ $3, CX
	JZ   axpydone

axpyone:
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    axpyone

axpydone:
	VZEROUPPER
	RET

// func axpy8(a float64, x, y []float64)
//
// y[k] += a*x[k] for k < len(x): eight at a time with VMULPD then VADDPD,
// then the len(x) % 8 tail the same way under the mask K1 of its lanes,
// whose loads fault on no element past the end and whose store writes
// none. The caller makes sure len(y) >= len(x).
TEXT ·axpy8(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Z0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           axpy8tail

axpy8block:
	VMULPD  (SI), Z0, Z1
	VADDPD  (DI), Z1, Z1
	VMOVUPD Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     axpy8block

axpy8tail:
	ANDQ    $7, CX
	JZ      axpy8done
	MOVL    $1, DX
	SHLL    CX, DX
	DECL    DX
	KMOVW   DX, K1
	VMOVUPD.Z (SI), K1, Z1
	VMOVUPD.Z (DI), K1, Z2
	VMULPD  Z1, Z0, Z1
	VADDPD  Z2, Z1, Z1
	VMOVUPD Z1, K1, (DI)

axpy8done:
	VZEROUPPER
	RET
