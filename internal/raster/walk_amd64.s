#include "go_asm.h"
#include "textflag.h"

// appendTri and countTri walk every quad row of one triangle call of
// AppendQuads (appendRows, quadbatch.go) and CountTriangle (countRows,
// walk.go) with the four samples of a quad in SSE2 lanes: [L, R] lanes
// of float64 for each sample row, which countTri packs into [TL, TR,
// BL, BR] lanes of float32 for the depth test. Both stash the
// triangle's constants once per call (TRI_CONSTS), compute each row's
// terms in one row prologue (ROW_PROLOGUE) and share the quad-centre
// test (QUAD_CENTRE) and the per-sample evaluation (QUAD_SAMPLES); they
// differ only in what they do with the covered samples. SSE2 is the
// amd64 baseline, so no feature check guards them.
//
// Exactness contract: every value is bit-identical to the Go walk's.
//   - Each lane runs the IEEE-754 operations of the Go expression in the
//     same association: (e0x*dx + row)*invDen for l0 and l1,
//     (1 - l0) - l1 for l2, (l0*z0 + l1*z1) + l2*z2 for depth, and
//     (float64(x) + 0.5) + sampleBias for a sample's x. The one product
//     the two sample rows share, e0x*dx (e1x*dx), is the same operation
//     on the same operands as the Go loop's two evaluations of it.
//   - A row's sample y are (float64(y) + 0.5) + sampleBias and
//     ((float64(y) + 1) + 0.5) + sampleBias; float64(y) + 1 is exact, so
//     the second equals Go's float64(y+1) + 0.5 + sampleBias. Each row
//     term is e0y*(py - yC) (e1y for l1), and the centre term is
//     e0y*((float64(y) + 1) - yC).
//   - U and V are one lane pair, (l0c*[u0, v0] + l1c*[u1, v1]) +
//     l2c*[u2, v2], Go's l0c*u0 + l1c*u1 + l2c*u2 in each lane.
//   - No FMA: the Go compiler does not fuse on amd64.
//   - Compares use ordered predicates, false on NaN like Go's < and >=:
//     CMPPD $1 for < (the centre reject, px < maxX, py < maxY), CMPPD $2
//     with 0 (or minX, minY) as the left operand for >=, CMPPS $1 for
//     the depth test, and UCOMISD followed by JHI (taken only when
//     ordered and greater) for the l2 centre reject.
//   - CVTPD2PS rounds under the default MXCSR, as Go's float32() does
//     with CVTSD2SS.
//   - x and x+1, y and y+1 advance by adding 2.0 to small integers,
//     which is exact.
//   - A sample row outside the clip is a row mask (R_TIN, R_BIN) ANDed
//     into its lanes' coverage; a row with neither sample row inside is
//     skipped, as in Go.
//   - Masked lanes never reach memory as anything but +0.0 or the old
//     depth. appendTri ANDs each depth pair with its coverage, which
//     gives the +0.0 of Go's zero-initialised depth array. countTri
//     reads and writes depth pairs 8 bytes at a time as a blend of the
//     new and old values, so lanes that fail keep their bits; nothing
//     is written when blend is set or when no lane of the quad survives.
// The row exit and the accepted flag follow the Go loop step by step.

// Offsets into the 16-byte aligned local block. Triangle constants
// (C_), set once per call, are broadcast to both float64 lanes except
// the pairs [e0x, e1x], [e0y, e1y], [-m0, -m1], [x0, x0+1] and the
// current row's [y, y+1]. Row terms (R_) are rewritten by each row's
// prologue. A_ slots are appendTri's, K_ slots countTri's. The 464
// bytes plus up to 15 of alignment slack fit the 480-byte frame.
#define C_EX 0
#define C_EY 16
#define C_NEGM 32
#define C_NEGM2 48
#define C_HALF 64
#define C_BIAS 80
#define C_TWO 96
#define C_MINX 112
#define C_MAXX 128
#define C_MINY 144
#define C_MAXY 160
#define C_YC 176
#define C_Z0 192
#define C_Z1 208
#define C_Z2 224
#define C_X0 240
#define C_Y 256
#define R_CY 272
#define R_TIN 288
#define R_BIN 304
#define R_ROWT0 320
#define R_ROWT1 336
#define R_ROWB0 352
#define R_ROWB1 368
#define A_UV0 384
#define A_UV1 400
#define A_UV2 416
#define A_LC 432
#define A_L2C 448
#define K_W4 384
#define K_STRIDE 392
#define K_ROWS 400

// BCAST loads the float64 at off(R12) into both lanes of X.
#define BCAST(off, X) MOVSD off(R12), X; UNPCKLPD X, X

// STASH broadcasts the float64 at off(R12) into the local slot slot(R8).
#define STASH(off, slot) BCAST(off, X1); MOVAPD X1, slot(R8)

// PAIR copies the float64 pair at off(R12) into the local slot slot(R8).
#define PAIR(off, slot) MOVUPD off(R12), X1; MOVAPD X1, slot(R8)

// TRI_CONSTS points R8 at the aligned local block and fills it from the
// triSetup at R12, then sets the register constants: X8 xC, X9 e0x,
// X10 e1x, X11 invDen, X12 1.0 and R13 the quads per row,
// (x1 - x0 + 1) / 2. C_X0 is [float64(x0), float64(x0) + 1] and C_Y
// the first row's [float64(y0), float64(y0) + 1].
#define TRI_CONSTS \
	LEAQ 15(SP), R8; \
	ANDQ $~15, R8; \
	PAIR(triSetup_e0x, C_EX); \
	PAIR(triSetup_e0y, C_EY); \
	PAIR(triSetup_negM0, C_NEGM); \
	STASH(triSetup_negM2, C_NEGM2); \
	STASH(triSetup_bias, C_BIAS); \
	STASH(triSetup_minX, C_MINX); \
	STASH(triSetup_maxX, C_MAXX); \
	STASH(triSetup_minY, C_MINY); \
	STASH(triSetup_maxY, C_MAXY); \
	STASH(triSetup_yC, C_YC); \
	STASH(triSetup_z0, C_Z0); \
	STASH(triSetup_z1, C_Z1); \
	STASH(triSetup_z2, C_Z2); \
	MOVSD $0.5, X1; \
	UNPCKLPD X1, X1; \
	MOVAPD X1, C_HALF(R8); \
	MOVSD $2.0, X1; \
	UNPCKLPD X1, X1; \
	MOVAPD X1, C_TWO(R8); \
	BCAST(triSetup_xC, X8); \
	BCAST(triSetup_e0x, X9); \
	BCAST(triSetup_e1x, X10); \
	BCAST(triSetup_invDen, X11); \
	MOVSD $1.0, X12; \
	UNPCKLPD X12, X12; \
	CVTSQ2SD triSetup_x0(R12), X1; \
	MOVAPD X1, X2; \
	ADDSD X12, X2; \
	UNPCKLPD X2, X1; \
	MOVAPD X1, C_X0(R8); \
	CVTSQ2SD triSetup_y0(R12), X1; \
	MOVAPD X1, X2; \
	ADDSD X12, X2; \
	UNPCKLPD X2, X1; \
	MOVAPD X1, C_Y(R8); \
	MOVQ triSetup_x1(R12), R13; \
	SUBQ triSetup_x0(R12), R13; \
	INCQ R13; \
	SHRQ $1, R13

// ROW_PROLOGUE computes the row terms of the row at C_Y, jumping to
// skip when neither sample row is inside the clip: X1 = [pyT, pyB],
// X2 = [rowTIn, rowBIn], then R_TIN, R_BIN, R_ROWT0 = e0y*(pyT - yC)
// and so on, and R_CY = [e0y, e1y]*((float64(y) + 1) - yC). It leaves
// X0 at the first quad's [x, x+1], the accepted flag DX clear and the
// quad counter R10 at R13. Clobbers AX and X1-X3.
#define ROW_PROLOGUE(skip) \
	MOVAPD C_Y(R8), X1; \
	ADDPD C_HALF(R8), X1; \
	ADDPD C_BIAS(R8), X1; \
	MOVAPD X1, X2; \
	CMPPD C_MAXY(R8), X2, $1; \
	MOVAPD C_MINY(R8), X3; \
	CMPPD X1, X3, $2; \
	ANDPD X3, X2; \
	MOVMSKPD X2, AX; \
	TESTL AX, AX; \
	JZ skip; \
	MOVAPD X2, X3; \
	UNPCKLPD X3, X3; \
	MOVAPD X3, R_TIN(R8); \
	UNPCKHPD X2, X2; \
	MOVAPD X2, R_BIN(R8); \
	SUBPD C_YC(R8), X1; \
	MOVAPD X1, X2; \
	UNPCKLPD X2, X2; \
	MULPD C_EY(R8), X2; \
	MOVAPD X2, X3; \
	UNPCKLPD X3, X3; \
	MOVAPD X3, R_ROWT0(R8); \
	UNPCKHPD X2, X2; \
	MOVAPD X2, R_ROWT1(R8); \
	UNPCKHPD X1, X1; \
	MULPD C_EY(R8), X1; \
	MOVAPD X1, X3; \
	UNPCKLPD X3, X3; \
	MOVAPD X3, R_ROWB0(R8); \
	UNPCKHPD X1, X1; \
	MOVAPD X1, R_ROWB1(R8); \
	MOVAPD C_Y(R8), X1; \
	UNPCKHPD X1, X1; \
	SUBPD C_YC(R8), X1; \
	MULPD C_EY(R8), X1; \
	MOVAPD X1, R_CY(R8); \
	MOVAPD C_X0(R8), X0; \
	XORL DX, DX; \
	MOVQ R13, R10

// NEXT_ROW advances C_Y to the next quad row.
#define NEXT_ROW \
	MOVAPD C_Y(R8), X1; \
	ADDPD C_TWO(R8), X1; \
	MOVAPD X1, C_Y(R8)

// QUAD_CENTRE runs the centre test of the quad at X0, jumping to reject
// when it fails and setting the accepted flag DX when it passes. It
// leaves X1 = [l0c, l1c] and X2 = l2c in lane 0. Clobbers AX and X3.
#define QUAD_CENTRE(reject) \
	MOVAPD X0, X1; \
	UNPCKLPD X1, X1; \
	ADDPD X12, X1; \
	SUBPD X8, X1; \
	MULPD C_EX(R8), X1; \
	ADDPD R_CY(R8), X1; \
	MULPD X11, X1; \
	MOVAPD X12, X2; \
	SUBSD X1, X2; \
	MOVAPD X1, X3; \
	UNPCKHPD X3, X3; \
	SUBSD X3, X2; \
	MOVSD C_NEGM2(R8), X3; \
	UCOMISD X2, X3; \
	JHI reject; \
	MOVAPD X1, X3; \
	CMPPD C_NEGM(R8), X3, $1; \
	MOVMSKPD X3, AX; \
	TESTL AX, AX; \
	JNZ reject; \
	MOVL $1, DX

// QUAD_SAMPLES evaluates the four samples of the quad at X0: X7 and X4
// are the top sample row's coverage mask and float64 depth, X14 and X5
// the bottom's. Coverage includes the column and row clip masks.
// Clobbers X1-X3, X6, X13 and X15.
#define QUAD_SAMPLES \
	MOVAPD X0, X1; \
	ADDPD C_HALF(R8), X1; \
	ADDPD C_BIAS(R8), X1; \
	MOVAPD X1, X2; \
	CMPPD C_MAXX(R8), X2, $1; \
	MOVAPD C_MINX(R8), X3; \
	CMPPD X1, X3, $2; \
	ANDPD X3, X2; \
	SUBPD X8, X1; \
	MOVAPD X1, X3; \
	MULPD X9, X1; \
	MULPD X10, X3; \
	MOVAPD X1, X4; \
	ADDPD R_ROWT0(R8), X4; \
	MULPD X11, X4; \
	MOVAPD X3, X5; \
	ADDPD R_ROWT1(R8), X5; \
	MULPD X11, X5; \
	MOVAPD X12, X6; \
	SUBPD X4, X6; \
	SUBPD X5, X6; \
	MOVAPD R_TIN(R8), X7; \
	ANDPD X2, X7; \
	XORPD X13, X13; \
	CMPPD X4, X13, $2; \
	ANDPD X13, X7; \
	XORPD X13, X13; \
	CMPPD X5, X13, $2; \
	ANDPD X13, X7; \
	XORPD X13, X13; \
	CMPPD X6, X13, $2; \
	ANDPD X13, X7; \
	MULPD C_Z0(R8), X4; \
	MULPD C_Z1(R8), X5; \
	ADDPD X5, X4; \
	MULPD C_Z2(R8), X6; \
	ADDPD X6, X4; \
	MOVAPD X1, X5; \
	ADDPD R_ROWB0(R8), X5; \
	MULPD X11, X5; \
	MOVAPD X3, X6; \
	ADDPD R_ROWB1(R8), X6; \
	MULPD X11, X6; \
	MOVAPD X12, X13; \
	SUBPD X5, X13; \
	SUBPD X6, X13; \
	MOVAPD R_BIN(R8), X14; \
	ANDPD X2, X14; \
	XORPD X15, X15; \
	CMPPD X5, X15, $2; \
	ANDPD X15, X14; \
	XORPD X15, X15; \
	CMPPD X6, X15, $2; \
	ANDPD X15, X14; \
	XORPD X15, X15; \
	CMPPD X13, X15, $2; \
	ANDPD X15, X14; \
	MULPD C_Z0(R8), X5; \
	MULPD C_Z1(R8), X6; \
	ADDPD X6, X5; \
	MULPD C_Z2(R8), X13; \
	ADDPD X13, X5

// func appendTri(s *triSetup, b *QuadBatch, n int) int
//
// R9 = b, BX = n, CX = the quad's x, R11 = the row's y.
TEXT ·appendTri(SB), NOSPLIT, $480-32
	MOVQ s+0(FP), R12
	MOVQ b+8(FP), R9
	MOVQ n+16(FP), BX
	TRI_CONSTS
	PAIR(triSetup_u0, A_UV0)
	PAIR(triSetup_u1, A_UV1)
	PAIR(triSetup_u2, A_UV2)
	MOVQ triSetup_y0(R12), R11

arow:
	ROW_PROLOGUE(arowdone)
	MOVQ triSetup_x0(R12), CX

aloop:
	QUAD_CENTRE(areject)
	MOVAPD X1, A_LC(R8)
	MOVSD X2, A_L2C(R8)
	QUAD_SAMPLES
	// mask = top coverage | bottom coverage << 2, depth zero where masked.
	ANDPD X7, X4
	ANDPD X14, X5
	MOVMSKPD X7, AX
	MOVMSKPD X14, SI
	SHLL $2, SI
	ORL SI, AX
	JZ anext
	MOVQ QuadBatch_X(R9), SI
	MOVL CX, (SI)(BX*4)
	MOVQ QuadBatch_Y(R9), SI
	MOVL R11, (SI)(BX*4)
	MOVQ QuadBatch_Mask(R9), SI
	MOVB AX, (SI)(BX*1)
	MOVQ QuadBatch_Depth(R9), SI
	MOVQ BX, DI
	SHLQ $5, DI
	MOVUPD X4, (SI)(DI*1)
	MOVUPD X5, 16(SI)(DI*1)
	// [U, V] = (l0c*[u0, v0] + l1c*[u1, v1]) + l2c*[u2, v2].
	MOVAPD A_LC(R8), X1
	MOVAPD X1, X2
	UNPCKLPD X1, X1
	UNPCKHPD X2, X2
	MULPD A_UV0(R8), X1
	MULPD A_UV1(R8), X2
	ADDPD X2, X1
	MOVSD A_L2C(R8), X2
	UNPCKLPD X2, X2
	MULPD A_UV2(R8), X2
	ADDPD X2, X1
	MOVQ QuadBatch_U(R9), SI
	MOVSD X1, (SI)(BX*8)
	MOVQ QuadBatch_V(R9), SI
	MOVHPD X1, (SI)(BX*8)
	INCQ BX

anext:
	ADDPD C_TWO(R8), X0
	ADDQ $2, CX
	DECQ R10
	JNZ aloop

arowdone:
	NEXT_ROW
	ADDQ $2, R11
	CMPQ R11, triSetup_y1(R12)
	JLT arow
	MOVQ BX, ret+24(FP)
	RET

areject:
	// The first reject after an accept ends the row (setupTriangle).
	TESTL DX, DX
	JNZ arowdone
	JMP anext

// func countTri(s *triSetup, z []float32, w, rows int, blend bool) uint64
//
// BX = survivors, R11 = the row's top-left depth, DI and SI = the
// quad's top and bottom depth pairs.
TEXT ·countTri(SB), NOSPLIT, $480-64
	MOVQ s+0(FP), R12
	MOVQ z_base+8(FP), R11
	XORQ BX, BX
	MOVQ rows+40(FP), CX
	TESTQ CX, CX
	JLE cdone
	TRI_CONSTS
	MOVQ CX, K_ROWS(R8)
	MOVQ w+32(FP), AX
	SHLQ $2, AX
	MOVQ AX, K_W4(R8)
	SHLQ $1, AX
	MOVQ AX, K_STRIDE(R8)

crow:
	ROW_PROLOGUE(crowdone)
	MOVQ R11, DI
	MOVQ R11, SI
	ADDQ K_W4(R8), SI

cloop:
	QUAD_CENTRE(creject)
	QUAD_SAMPLES
	CVTPD2PS X4, X4
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
	JZ cnext
	// Survivors += popcount of the 4-bit mask, from a nibble table.
	MOVL AX, CX
	SHLL $2, CX
	MOVQ $0x4332322132212110, R9
	SHRQ CX, R9
	ANDL $15, R9
	ADDQ R9, BX
	CMPB blend+48(FP), $0
	JNE cnext
	ANDPS X7, X4
	ANDNPS X5, X7
	ORPS X4, X7
	MOVLPS X7, (DI)
	MOVHPS X7, (SI)

cnext:
	ADDPD C_TWO(R8), X0
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ R10
	JNZ cloop

crowdone:
	NEXT_ROW
	ADDQ K_STRIDE(R8), R11
	DECQ K_ROWS(R8)
	JNZ crow

cdone:
	MOVQ BX, ret+56(FP)
	RET

creject:
	// The first reject after an accept ends the row (setupTriangle).
	TESTL DX, DX
	JNZ crowdone
	JMP cnext
