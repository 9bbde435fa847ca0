#include "textflag.h"

// func accum2x8(a0, a1, xx, w []float64, stride, k0 int)
//
// Eight outputs per block: X0-X7 hold (a0[o+j], a1[o+j]) for j = 0..7.
// Per term k, X8 holds (xx[2k], xx[2k+1]) and each W[o+j][k0+k] is
// broadcast to both lanes (MOVSD + UNPCKLPD; MOVDDUP would need SSE3),
// multiplied by X8 and added onto its accumulator. W's eight rows are
// addressed from R8 (rows 0-3) and R11 (rows 4-7) with the row stride in
// R9 and three times it in R13. BP and R15 are left alone.
TEXT ·accum2x8(SB), NOSPLIT, $0-112
	MOVQ a0_base+0(FP), DI
	MOVQ a0_len+8(FP), BX
	SHRQ $3, BX
	JZ   done
	MOVQ a1_base+24(FP), SI
	MOVQ xx_base+48(FP), DX
	MOVQ xx_len+56(FP), R12
	SHRQ $1, R12
	JZ   done
	MOVQ w_base+72(FP), AX
	MOVQ stride+96(FP), R9
	MOVQ k0+104(FP), CX
	LEAQ (AX)(CX*8), AX
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R13

block:
	MOVSD  0(DI), X0
	MOVHPD 0(SI), X0
	MOVSD  8(DI), X1
	MOVHPD 8(SI), X1
	MOVSD  16(DI), X2
	MOVHPD 16(SI), X2
	MOVSD  24(DI), X3
	MOVHPD 24(SI), X3
	MOVSD  32(DI), X4
	MOVHPD 32(SI), X4
	MOVSD  40(DI), X5
	MOVHPD 40(SI), X5
	MOVSD  48(DI), X6
	MOVHPD 48(SI), X6
	MOVSD  56(DI), X7
	MOVHPD 56(SI), X7
	MOVQ   AX, R8
	LEAQ   (AX)(R9*4), R11
	MOVQ   DX, R10
	MOVQ   R12, CX

term:
	MOVUPD   (R10), X8
	MOVSD    (R8), X9
	UNPCKLPD X9, X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVSD    (R8)(R9*1), X10
	UNPCKLPD X10, X10
	MULPD    X8, X10
	ADDPD    X10, X1
	MOVSD    (R8)(R9*2), X11
	UNPCKLPD X11, X11
	MULPD    X8, X11
	ADDPD    X11, X2
	MOVSD    (R8)(R13*1), X12
	UNPCKLPD X12, X12
	MULPD    X8, X12
	ADDPD    X12, X3
	MOVSD    (R11), X13
	UNPCKLPD X13, X13
	MULPD    X8, X13
	ADDPD    X13, X4
	MOVSD    (R11)(R9*1), X14
	UNPCKLPD X14, X14
	MULPD    X8, X14
	ADDPD    X14, X5
	MOVSD    (R11)(R9*2), X9
	UNPCKLPD X9, X9
	MULPD    X8, X9
	ADDPD    X9, X6
	MOVSD    (R11)(R13*1), X10
	UNPCKLPD X10, X10
	MULPD    X8, X10
	ADDPD    X10, X7
	ADDQ     $8, R8
	ADDQ     $8, R11
	ADDQ     $16, R10
	DECQ     CX
	JNZ      term

	MOVSD  X0, 0(DI)
	MOVHPD X0, 0(SI)
	MOVSD  X1, 8(DI)
	MOVHPD X1, 8(SI)
	MOVSD  X2, 16(DI)
	MOVHPD X2, 16(SI)
	MOVSD  X3, 24(DI)
	MOVHPD X3, 24(SI)
	MOVSD  X4, 32(DI)
	MOVHPD X4, 32(SI)
	MOVSD  X5, 40(DI)
	MOVHPD X5, 40(SI)
	MOVSD  X6, 48(DI)
	MOVHPD X6, 48(SI)
	MOVSD  X7, 56(DI)
	MOVHPD X7, 56(SI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	LEAQ   (AX)(R9*8), AX
	DECQ   BX
	JNZ    block

done:
	RET
