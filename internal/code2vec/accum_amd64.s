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
