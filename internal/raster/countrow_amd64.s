#include "go_asm.h"
#include "textflag.h"

// countRow walks one quad row of CountTriangle (walk.go) with the four
// samples of a quad in SSE2 lanes: [L, R] lanes of float64 for each
// sample row, packed into [TL, TR, BL, BR] lanes of float32 for the
// depth test. SSE2 is the amd64 baseline, so no feature check guards it.
//
// Exactness contract: every value is bit-identical to the Go loop's.
//   - Each lane runs the IEEE-754 operations of the Go expression in the
//     same association: (e0x*dx + row)*invDen for l0 and l1,
//     (1 - l0) - l1 for l2, (l0*z0 + l1*z1) + l2*z2 for depth, and
//     (float64(x) + 0.5) + sampleBias for a sample's x. The one product
//     the two sample rows share, e0x*dx (e1x*dx), is the same operation
//     on the same operands as the Go loop's two evaluations of it.
//   - No FMA: the Go compiler does not fuse on amd64.
//   - Compares use ordered predicates, false on NaN like Go's < and >=:
//     CMPPD $1 for < (the centre reject, px < maxX), CMPPD $2 with 0
//     (or minX) as the left operand for >=, CMPPS $1 for the depth
//     test, and UCOMISD followed by JHI (taken only when ordered and
//     greater) for the l2 centre reject.
//   - CVTPD2PS rounds under the default MXCSR, as Go's float32() does
//     with CVTSD2SS.
//   - x and x+1 advance by adding 2.0 to small integers, which is exact.
// The row exit and the accepted flag follow the Go loop step by step.
// Depth pairs are read and written 8 bytes at a time as a blend of the
// new and old values, so lanes that fail keep their bits; nothing is
// written when blend is set or when no lane survives.

// Offsets into the 16-byte aligned local copy of the row constants,
// each broadcast to both float64 lanes ([e0x, e1x], [cy0, cy1] and
// [-m0, -m1] are pairs). The 240 bytes plus up to 15 of alignment
// slack fit the 256-byte frame.
#define C_E 0
#define C_CY 16
#define C_NEGM 32
#define C_HALF 48
#define C_BIAS 64
#define C_TWO 80
#define C_MINX 96
#define C_MAXX 112
#define C_ROWT0 128
#define C_ROWT1 144
#define C_ROWB0 160
#define C_ROWB1 176
#define C_Z0 192
#define C_Z1 208
#define C_Z2 224

// BCAST loads the float64 at off(R12) into both lanes of X.
#define BCAST(off, X) MOVSD off(R12), X; UNPCKLPD X, X

// STASH broadcasts the float64 at off(R12) into the local slot slot(R8).
#define STASH(off, slot) BCAST(off, X1); MOVAPD X1, slot(R8)

// func countRow(k *rowConsts, top, bot []float32) uint64
TEXT ·countRow(SB), NOSPLIT, $256-64
	MOVQ k+0(FP), R12
	MOVQ top_base+8(FP), DI
	MOVQ top_len+16(FP), R10
	MOVQ bot_base+32(FP), SI
	MOVBLZX rowConsts_blend(R12), R11
	SHRQ $1, R10 // quads in the row
	XORQ BX, BX  // survivors
	XORQ DX, DX  // accepted
	TESTQ R10, R10
	JZ done

	// R8 = 16-byte aligned local block for memory operands.
	LEAQ 15(SP), R8
	ANDQ $~15, R8
	MOVUPD rowConsts_e0x(R12), X1
	MOVAPD X1, C_E(R8)
	MOVUPD rowConsts_cy0(R12), X1
	MOVAPD X1, C_CY(R8)
	MOVUPD rowConsts_negM0(R12), X1
	MOVAPD X1, C_NEGM(R8)
	STASH(rowConsts_bias, C_BIAS)
	STASH(rowConsts_minX, C_MINX)
	STASH(rowConsts_maxX, C_MAXX)
	STASH(rowConsts_rowT0, C_ROWT0)
	STASH(rowConsts_rowT1, C_ROWT1)
	STASH(rowConsts_rowB0, C_ROWB0)
	STASH(rowConsts_rowB1, C_ROWB1)
	STASH(rowConsts_z0, C_Z0)
	STASH(rowConsts_z1, C_Z1)
	STASH(rowConsts_z2, C_Z2)
	MOVSD $0.5, X1
	UNPCKLPD X1, X1
	MOVAPD X1, C_HALF(R8)
	MOVSD $2.0, X1
	UNPCKLPD X1, X1
	MOVAPD X1, C_TWO(R8)

	// Register constants: X8 xC, X9 e0x, X10 e1x, X11 invDen, X12 1.0.
	BCAST(rowConsts_xC, X8)
	BCAST(rowConsts_e0x, X9)
	BCAST(rowConsts_e1x, X10)
	BCAST(rowConsts_invDen, X11)
	MOVSD $1.0, X12
	UNPCKLPD X12, X12

	// X0 = [float64(x), float64(x+1)] of the current quad.
	MOVSD rowConsts_x(R12), X0
	MOVAPD X0, X1
	ADDSD X12, X1
	UNPCKLPD X1, X0

loop:
	// Centre test: X1 = [l0c, l1c], X2 = l2c.
	MOVAPD X0, X1
	UNPCKLPD X1, X1   // [x, x]
	ADDPD X12, X1     // cx = x + 1
	SUBPD X8, X1      // dxc = cx - xC
	MULPD C_E(R8), X1
	ADDPD C_CY(R8), X1
	MULPD X11, X1     // [l0c, l1c]
	MOVAPD X12, X2
	SUBSD X1, X2      // 1 - l0c
	MOVAPD X1, X3
	UNPCKHPD X3, X3   // [l1c, l1c]
	SUBSD X3, X2      // l2c = (1 - l0c) - l1c
	MOVSD rowConsts_negM2(R12), X3
	UCOMISD X2, X3    // -m2 > l2c
	JHI reject
	CMPPD C_NEGM(R8), X1, $1 // [l0c < -m0, l1c < -m1]
	MOVMSKPD X1, AX
	TESTL AX, AX
	JNZ reject
	MOVL $1, DX

	// Sample columns: X2 = in-clip mask, X1 = e0x*dx, X3 = e1x*dx.
	MOVAPD X0, X1
	ADDPD C_HALF(R8), X1
	ADDPD C_BIAS(R8), X1 // px = (x + 0.5) + sampleBias
	MOVAPD X1, X2
	CMPPD C_MAXX(R8), X2, $1 // px < maxX
	MOVAPD C_MINX(R8), X3
	CMPPD X1, X3, $2         // minX <= px
	ANDPD X3, X2
	SUBPD X8, X1             // dx = px - xC
	MOVAPD X1, X3
	MULPD X9, X1
	MULPD X10, X3

	// Top sample row: X7 = coverage, X4 = float32 depth in lanes 0-1.
	MOVAPD X1, X4
	ADDPD C_ROWT0(R8), X4
	MULPD X11, X4 // l0
	MOVAPD X3, X5
	ADDPD C_ROWT1(R8), X5
	MULPD X11, X5 // l1
	MOVAPD X12, X6
	SUBPD X4, X6
	SUBPD X5, X6  // l2
	MOVAPD X2, X7
	XORPD X13, X13
	CMPPD X4, X13, $2 // 0 <= l0
	ANDPD X13, X7
	XORPD X13, X13
	CMPPD X5, X13, $2
	ANDPD X13, X7
	XORPD X13, X13
	CMPPD X6, X13, $2
	ANDPD X13, X7
	MULPD C_Z0(R8), X4
	MULPD C_Z1(R8), X5
	ADDPD X5, X4
	MULPD C_Z2(R8), X6
	ADDPD X6, X4
	CVTPD2PS X4, X4

	// Bottom sample row: X14 = coverage, X5 = float32 depth in lanes 0-1.
	MOVAPD X1, X5
	ADDPD C_ROWB0(R8), X5
	MULPD X11, X5 // l0
	MOVAPD X3, X6
	ADDPD C_ROWB1(R8), X6
	MULPD X11, X6 // l1
	MOVAPD X12, X13
	SUBPD X5, X13
	SUBPD X6, X13 // l2
	MOVAPD X2, X14
	XORPD X15, X15
	CMPPD X5, X15, $2
	ANDPD X15, X14
	XORPD X15, X15
	CMPPD X6, X15, $2
	ANDPD X15, X14
	XORPD X15, X15
	CMPPD X13, X15, $2
	ANDPD X15, X14
	MULPD C_Z0(R8), X5
	MULPD C_Z1(R8), X6
	ADDPD X6, X5
	MULPD C_Z2(R8), X13
	ADDPD X13, X5
	CVTPD2PS X5, X5

	// Early-Z over [TL, TR, BL, BR]: X7 = covered and z < stored.
	MOVLHPS X5, X4
	SHUFPS $0x88, X14, X7
	MOVSD (DI), X5
	MOVHPS (SI), X5
	MOVAPS X4, X6
	CMPPS X5, X6, $1
	ANDPS X6, X7
	MOVMSKPS X7, AX
	TESTL AX, AX
	JZ next
	// Survivors += popcount of the 4-bit mask, from a nibble table.
	MOVL AX, CX
	SHLL $2, CX
	MOVQ $0x4332322132212110, R9
	SHRQ CX, R9
	ANDL $15, R9
	ADDQ R9, BX
	TESTL R11, R11
	JNZ next
	ANDPS X7, X4
	ANDNPS X5, X7
	ORPS X4, X7
	MOVLPS X7, (DI)
	MOVHPS X7, (SI)

next:
	ADDPD C_TWO(R8), X0
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ R10
	JNZ loop

done:
	MOVQ BX, ret+56(FP)
	RET

reject:
	// The first reject after an accept ends the row (setupTriangle).
	TESTL DX, DX
	JNZ done
	JMP next
