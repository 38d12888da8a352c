#include "go_asm.h"
#include "textflag.h"

// appendTri and countTri walk every quad row of one triangle call of
// AppendQuads (appendRows, quadbatch.go) and CountTriangle (countRows,
// walk.go) with the four samples of a quad in the four float64 lanes of
// one AVX register, [TL, TR, BL, BR]; countTri narrows them to four
// float32 lanes for the depth test. Both stash the triangle's constants
// once per call (TRI_CONSTS), compute each row's terms in one row
// prologue (ROW_PROLOGUE) and share the quad-centre test (QUAD_CENTRE)
// and the per-sample evaluation (QUAD_SAMPLES); they differ only in
// what they do with the covered samples. They use AVX and POPCNT, so
// walk_amd64.go selects them only when CPUID and XGETBV report both
// (cpuid1ECX, xgetbv0 below); otherwise the Go walks run.
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
//   - No FMA (no VFMADD*): the Go compiler does not fuse on amd64.
//   - Compares use ordered quiet predicates, false on NaN like Go's <
//     and >=: $0x11 (LT_OQ) for <, $0x1D (GE_OQ) for >=.
//   - VCVTPD2PSY rounds under the default MXCSR, as Go's float32() does
//     with CVTSD2SS.
//   - x and x+1, y and y+1 advance by adding 2.0 to small integers,
//     which is exact.
//   - A sample row outside the clip is a lane mask (R_IN) ANDed into
//     its lanes' coverage; a row with neither sample row inside is
//     skipped, as in Go.
//   - Masked lanes never reach memory as anything but +0.0 or the old
//     depth. appendTri ANDs the depths with their coverage, which gives
//     the +0.0 of Go's zero-initialised depth array. countTri reads and
//     writes depth pairs 8 bytes at a time as a blend of the new and
//     old values, so lanes that fail keep their bits; it counts
//     survivors with POPCNT and, unless blend is set, stores every
//     quad's blended pairs, without a branch on the survivors.
//   - VZEROUPPER before RET, so the Go code that follows pays no
//     AVX-to-SSE transition.
// The row exit and the accepted flag follow the Go loop step by step.

// The read-only constants: 0.5, 2.0 and 1.0 in four float64 lanes.
DATA walkConsts<>+0(SB)/8, $0.5
DATA walkConsts<>+8(SB)/8, $0.5
DATA walkConsts<>+16(SB)/8, $0.5
DATA walkConsts<>+24(SB)/8, $0.5
DATA walkConsts<>+32(SB)/8, $2.0
DATA walkConsts<>+40(SB)/8, $2.0
DATA walkConsts<>+48(SB)/8, $2.0
DATA walkConsts<>+56(SB)/8, $2.0
DATA walkConsts<>+64(SB)/8, $1.0
GLOBL walkConsts<>(SB), RODATA|NOPTR, $72

#define HALF walkConsts<>+0(SB)
#define TWO walkConsts<>+32(SB)
#define ONE walkConsts<>+64(SB)

// Offsets into the 32-byte aligned local block. Triangle constants
// (C_), set once per call, are broadcast to every lane of their slot
// except the pairs [e0x, e1x], [e0y, e1y], [-m0, -m1], the current
// row's [y, y+1] and C_X0, [x0, x0+1, x0, x0+1]. Row terms (R_) are
// rewritten by each row's prologue: R_IN is [rowTIn, rowTIn, rowBIn,
// rowBIn] and R_CY the centre term pair. Slots below 384 are 32 bytes
// wide, the rest 16. A_ slots are appendTri's, K_ slots countTri's. The
// 576 bytes plus up to 31 of alignment slack fit the 608-byte frame.
#define C_BIAS 0
#define C_MINX 32
#define C_MAXX 64
#define C_Z0 96
#define C_Z1 128
#define C_Z2 160
#define C_E0Y 192
#define C_E1Y 224
#define C_X0 256
#define R_IN 288
#define C_EX 384
#define C_EY 400
#define C_NEGM 416
#define C_NEGM2 432
#define C_MINY 448
#define C_MAXY 464
#define C_YC 480
#define C_Y 496
#define R_CY 512
#define A_UV0 528
#define A_UV1 544
#define A_UV2 560
#define K_W4 528
#define K_STRIDE 536
#define K_ROWS 544

// STASH4 broadcasts the float64 at off(R12) into the 32-byte slot
// slot(R8), STASH2 into the 16-byte one; PAIR copies the float64 pair
// at off(R12) into slot(R8).
#define STASH4(off, slot) VBROADCASTSD off(R12), Y1; VMOVAPD Y1, slot(R8)
#define STASH2(off, slot) VMOVDDUP off(R12), X1; VMOVAPD X1, slot(R8)
#define PAIR(off, slot) VMOVUPD off(R12), X1; VMOVAPD X1, slot(R8)

// TRI_CONSTS points R8 at the aligned local block and fills it from the
// triSetup at R12, then sets the register constants, each in every
// lane: Y8 xC, Y9 e0x, Y10 e1x, Y11 invDen, Y12 1.0, Y15 0.0, and R13
// the quads per row, (x1 - x0 + 1) / 2. C_Y is the first row's
// [float64(y0), float64(y0) + 1].
#define TRI_CONSTS \
	LEAQ 31(SP), R8; \
	ANDQ $~31, R8; \
	STASH4(triSetup_bias, C_BIAS); \
	STASH4(triSetup_minX, C_MINX); \
	STASH4(triSetup_maxX, C_MAXX); \
	STASH4(triSetup_z0, C_Z0); \
	STASH4(triSetup_z1, C_Z1); \
	STASH4(triSetup_z2, C_Z2); \
	STASH4(triSetup_e0y, C_E0Y); \
	STASH4(triSetup_e1y, C_E1Y); \
	PAIR(triSetup_e0x, C_EX); \
	PAIR(triSetup_e0y, C_EY); \
	PAIR(triSetup_negM0, C_NEGM); \
	STASH2(triSetup_negM2, C_NEGM2); \
	STASH2(triSetup_minY, C_MINY); \
	STASH2(triSetup_maxY, C_MAXY); \
	STASH2(triSetup_yC, C_YC); \
	VBROADCASTSD triSetup_xC(R12), Y8; \
	VBROADCASTSD triSetup_e0x(R12), Y9; \
	VBROADCASTSD triSetup_e1x(R12), Y10; \
	VBROADCASTSD triSetup_invDen(R12), Y11; \
	VBROADCASTSD ONE, Y12; \
	VXORPD Y15, Y15, Y15; \
	VCVTSI2SDQ triSetup_x0(R12), X1, X1; \
	VADDSD X12, X1, X2; \
	VUNPCKLPD X2, X1, X1; \
	VINSERTF128 $1, X1, Y1, Y1; \
	VMOVAPD Y1, C_X0(R8); \
	VCVTSI2SDQ triSetup_y0(R12), X1, X1; \
	VADDSD X12, X1, X2; \
	VUNPCKLPD X2, X1, X1; \
	VMOVAPD X1, C_Y(R8); \
	MOVQ triSetup_x1(R12), R13; \
	SUBQ triSetup_x0(R12), R13; \
	INCQ R13; \
	SHRQ $1, R13

// ROW_PROLOGUE computes the row terms of the row at C_Y, jumping to
// skip when neither sample row is inside the clip: X1 = [pyT, pyB],
// X2 = [rowTIn, rowBIn], then R_IN, Y13 = e0y*([pyT, pyT, pyB, pyB] -
// yC), Y14 the same with e1y, and R_CY = [e0y, e1y]*((float64(y) + 1)
// - yC). It leaves Y0 at the first quad's [x, x+1, x, x+1], the
// accepted flag DX clear and the quad counter R10 at R13. Clobbers AX
// and Y1-Y3.
#define ROW_PROLOGUE(skip) \
	VMOVAPD C_Y(R8), X1; \
	VADDPD HALF, X1, X1; \
	VADDPD C_BIAS(R8), X1, X1; \
	VCMPPD $0x11, C_MAXY(R8), X1, X2; \
	VCMPPD $0x1D, C_MINY(R8), X1, X3; \
	VANDPD X3, X2, X2; \
	VMOVMSKPD X2, AX; \
	TESTL AX, AX; \
	JZ skip; \
	VMOVDDUP X2, X3; \
	VPERMILPD $3, X2, X2; \
	VINSERTF128 $1, X2, Y3, Y3; \
	VMOVAPD Y3, R_IN(R8); \
	VSUBPD C_YC(R8), X1, X1; \
	VMOVDDUP X1, X2; \
	VPERMILPD $3, X1, X1; \
	VINSERTF128 $1, X1, Y2, Y2; \
	VMULPD C_E0Y(R8), Y2, Y13; \
	VMULPD C_E1Y(R8), Y2, Y14; \
	VPERMILPD $3, C_Y(R8), X1; \
	VSUBPD C_YC(R8), X1, X1; \
	VMULPD C_EY(R8), X1, X1; \
	VMOVAPD X1, R_CY(R8); \
	VMOVAPD C_X0(R8), Y0; \
	XORL DX, DX; \
	MOVQ R13, R10

// NEXT_ROW advances C_Y to the next quad row.
#define NEXT_ROW \
	VMOVAPD C_Y(R8), X1; \
	VADDPD TWO, X1, X1; \
	VMOVAPD X1, C_Y(R8)

// QUAD_CENTRE runs the centre test of the quad at Y0, jumping to reject
// when it fails and setting the accepted flag DX when it passes. It
// leaves X1 = [l0c, l1c] and X2 = [l2c, 1.0]. The three rejects are
// tested at once: Go's || of pure compares has the same outcome.
// Clobbers AX, X3 and X4.
#define QUAD_CENTRE(reject) \
	VPERMILPD $3, X0, X1; \
	VSUBPD X8, X1, X1; \
	VMULPD C_EX(R8), X1, X1; \
	VADDPD R_CY(R8), X1, X1; \
	VMULPD X11, X1, X1; \
	VSUBSD X1, X12, X2; \
	VPERMILPD $1, X1, X3; \
	VSUBSD X3, X2, X2; \
	VCMPPD $0x11, C_NEGM(R8), X1, X3; \
	VCMPSD $0x11, C_NEGM2(R8), X2, X4; \
	VORPD X4, X3, X3; \
	VMOVMSKPD X3, AX; \
	TESTL AX, AX; \
	JNZ reject; \
	MOVL $1, DX

// QUAD_SAMPLES evaluates the four samples of the quad at Y0: Y7 is
// their coverage mask, with the column and row clip masks, and Y4
// their float64 depth. Clobbers Y1-Y3 and Y5.
#define QUAD_SAMPLES \
	VADDPD HALF, Y0, Y1; \
	VADDPD C_BIAS(R8), Y1, Y1; \
	VCMPPD $0x11, C_MAXX(R8), Y1, Y2; \
	VCMPPD $0x1D, C_MINX(R8), Y1, Y3; \
	VANDPD Y3, Y2, Y2; \
	VANDPD R_IN(R8), Y2, Y7; \
	VSUBPD Y8, Y1, Y1; \
	VMULPD Y9, Y1, Y2; \
	VMULPD Y10, Y1, Y3; \
	VADDPD Y13, Y2, Y2; \
	VMULPD Y11, Y2, Y2; \
	VADDPD Y14, Y3, Y3; \
	VMULPD Y11, Y3, Y3; \
	VSUBPD Y2, Y12, Y4; \
	VSUBPD Y3, Y4, Y4; \
	VCMPPD $0x1D, Y15, Y2, Y5; \
	VANDPD Y5, Y7, Y7; \
	VCMPPD $0x1D, Y15, Y3, Y5; \
	VANDPD Y5, Y7, Y7; \
	VCMPPD $0x1D, Y15, Y4, Y5; \
	VANDPD Y5, Y7, Y7; \
	VMULPD C_Z0(R8), Y2, Y2; \
	VMULPD C_Z1(R8), Y3, Y3; \
	VADDPD Y3, Y2, Y2; \
	VMULPD C_Z2(R8), Y4, Y4; \
	VADDPD Y4, Y2, Y4

// func appendTri(s *triSetup, b *QuadBatch, n int) int
//
// R9 = b, BX = n, CX = the quad's x, R11 = the row's y, X6 = the
// quad's [U, V].
TEXT ·appendTri(SB), NOSPLIT, $608-32
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
	// [U, V] = (l0c*[u0, v0] + l1c*[u1, v1]) + l2c*[u2, v2].
	VMOVDDUP X1, X3
	VMULPD A_UV0(R8), X3, X3
	VPERMILPD $3, X1, X4
	VMULPD A_UV1(R8), X4, X4
	VADDPD X4, X3, X3
	VMOVDDUP X2, X4
	VMULPD A_UV2(R8), X4, X4
	VADDPD X4, X3, X6
	QUAD_SAMPLES
	// The mask's bits are the lanes' sign bits, [TL, TR, BL, BR] as in
	// QuadBatch.Mask; depth is zero where masked.
	VMOVMSKPD Y7, AX
	TESTL AX, AX
	JZ anext
	VANDPD Y7, Y4, Y4
	MOVQ QuadBatch_X(R9), SI
	MOVL CX, (SI)(BX*4)
	MOVQ QuadBatch_Y(R9), SI
	MOVL R11, (SI)(BX*4)
	MOVQ QuadBatch_Mask(R9), SI
	MOVB AX, (SI)(BX*1)
	MOVQ QuadBatch_Depth(R9), SI
	MOVQ BX, DI
	SHLQ $5, DI
	VMOVUPD Y4, (SI)(DI*1)
	MOVQ QuadBatch_U(R9), SI
	VMOVSD X6, (SI)(BX*8)
	MOVQ QuadBatch_V(R9), SI
	VMOVHPD X6, (SI)(BX*8)
	INCQ BX

anext:
	VADDPD TWO, Y0, Y0
	ADDQ $2, CX
	DECQ R10
	JNZ aloop

arowdone:
	NEXT_ROW
	ADDQ $2, R11
	CMPQ R11, triSetup_y1(R12)
	JLT arow
	VZEROUPPER
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
TEXT ·countTri(SB), NOSPLIT, $608-64
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
	// Early-Z over [TL, TR, BL, BR] in float32 lanes: X7 = covered
	// (each 64-bit mask narrowed to its low half) and z < stored.
	VCVTPD2PSY Y4, X4
	VEXTRACTF128 $1, Y7, X5
	VSHUFPS $0x88, X5, X7, X7
	VMOVSD (DI), X5
	VMOVHPS (SI), X5, X5
	VCMPPS $0x11, X5, X4, X6
	VANDPS X6, X7, X7
	// Survivors += popcount of the 4-bit mask, which may be 0.
	VMOVMSKPS X7, AX
	POPCNTL AX, AX
	ADDQ AX, BX
	CMPB blend+48(FP), $0
	JNE cnext
	// Survivors take the new depth, the other lanes keep their bits.
	VBLENDVPS X7, X4, X5, X5
	VMOVSD X5, (DI)
	VMOVHPS X5, (SI)

cnext:
	VADDPD TWO, Y0, Y0
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
	VZEROUPPER
	MOVQ BX, ret+56(FP)
	RET

creject:
	// The first reject after an accept ends the row (setupTriangle).
	TESTL DX, DX
	JNZ crowdone
	JMP cnext

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
