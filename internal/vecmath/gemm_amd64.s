// AVX2+FMA kernels of the BMU engines and the element-wise updates. Plan
// 9 assembler, operand order src..dst: VFMADD231PD a, b, c computes
// c += b*a. Only VEX-encoded vector instructions appear, and every kernel
// ends with VZEROUPPER, so no AVX/SSE transition penalty is paid.
//
// The kernels taking n require n > 0 and n ≡ 0 (mod 4); the Go wrappers
// round the dimension down and add the scalar tail themselves. The
// dot-product kernels' accumulation order differs from the canonical
// scalar kernels by design — they feed the candidate generator only (see
// gemm.go).

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mul2x4AVX(x0, x1, w0, w1, w2, w3 *float64, n int, out *float64)
//
// The 2-record × 4-unit dot micro-block: out[0..3] = x0·w{0..3},
// out[4..7] = x1·w{0..3}, over the first n elements. Eight independent
// FMA accumulator chains saturate both FMA ports at 4-cycle latency;
// each loaded x vector is reused across four weight rows and each weight
// vector across both records.
TEXT ·mul2x4AVX(SB), NOSPLIT, $0-64
	MOVQ x0+0(FP), SI
	MOVQ x1+8(FP), DI
	MOVQ w0+16(FP), R8
	MOVQ w1+24(FP), R9
	MOVQ w2+32(FP), R10
	MOVQ w3+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ out+56(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX

loop:
	VMOVUPD (SI)(AX*1), Y8
	VMOVUPD (DI)(AX*1), Y9
	VMOVUPD (R8)(AX*1), Y10
	VMOVUPD (R9)(AX*1), Y11
	VMOVUPD (R10)(AX*1), Y12
	VMOVUPD (R11)(AX*1), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ $32, AX
	SUBQ $4, CX
	JNZ  loop

	// Horizontal reductions: fold each 4-lane accumulator to a scalar.
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VHADDPD      X0, X0, X0
	VMOVSD       X0, (DX)
	VEXTRACTF128 $1, Y1, X8
	VADDPD       X8, X1, X1
	VHADDPD      X1, X1, X1
	VMOVSD       X1, 8(DX)
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VHADDPD      X2, X2, X2
	VMOVSD       X2, 16(DX)
	VEXTRACTF128 $1, Y3, X8
	VADDPD       X8, X3, X3
	VHADDPD      X3, X3, X3
	VMOVSD       X3, 24(DX)
	VEXTRACTF128 $1, Y4, X8
	VADDPD       X8, X4, X4
	VHADDPD      X4, X4, X4
	VMOVSD       X4, 32(DX)
	VEXTRACTF128 $1, Y5, X8
	VADDPD       X8, X5, X5
	VHADDPD      X5, X5, X5
	VMOVSD       X5, 40(DX)
	VEXTRACTF128 $1, Y6, X8
	VADDPD       X8, X6, X6
	VHADDPD      X6, X6, X6
	VMOVSD       X6, 48(DX)
	VEXTRACTF128 $1, Y7, X8
	VADDPD       X8, X7, X7
	VHADDPD      X7, X7, X7
	VMOVSD       X7, 56(DX)
	VZEROUPPER
	RET

// func mul1x8AVX(x, w *float64, stride, n int, out *float64)
//
// The 1-record × 8-unit dot micro-block of a lone record row:
// out[k] = x·w_k over the first n elements, where weight row w_k starts
// k*stride bytes after w. Eight independent FMA chains, each reading its
// weight vector straight from memory, keep both FMA ports busy without
// the 2×4 kernel's duplicated second record.
TEXT ·mul1x8AVX(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ stride+16(FP), DX
	MOVQ n+24(FP), CX
	LEAQ (DI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX

loop:
	VMOVUPD     (SI)(AX*1), Y8
	VFMADD231PD (DI)(AX*1), Y8, Y0
	VFMADD231PD (R8)(AX*1), Y8, Y1
	VFMADD231PD (R9)(AX*1), Y8, Y2
	VFMADD231PD (R10)(AX*1), Y8, Y3
	VFMADD231PD (R11)(AX*1), Y8, Y4
	VFMADD231PD (R12)(AX*1), Y8, Y5
	VFMADD231PD (R13)(AX*1), Y8, Y6
	VFMADD231PD (BX)(AX*1), Y8, Y7
	ADDQ $32, AX
	SUBQ $4, CX
	JNZ  loop

	MOVQ         out+32(FP), DX
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VHADDPD      X0, X0, X0
	VMOVSD       X0, (DX)
	VEXTRACTF128 $1, Y1, X8
	VADDPD       X8, X1, X1
	VHADDPD      X1, X1, X1
	VMOVSD       X1, 8(DX)
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VHADDPD      X2, X2, X2
	VMOVSD       X2, 16(DX)
	VEXTRACTF128 $1, Y3, X8
	VADDPD       X8, X3, X3
	VHADDPD      X3, X3, X3
	VMOVSD       X3, 24(DX)
	VEXTRACTF128 $1, Y4, X8
	VADDPD       X8, X4, X4
	VHADDPD      X4, X4, X4
	VMOVSD       X4, 32(DX)
	VEXTRACTF128 $1, Y5, X8
	VADDPD       X8, X5, X5
	VHADDPD      X5, X5, X5
	VMOVSD       X5, 40(DX)
	VEXTRACTF128 $1, Y6, X8
	VADDPD       X8, X6, X6
	VHADDPD      X6, X6, X6
	VMOVSD       X6, 48(DX)
	VEXTRACTF128 $1, Y7, X8
	VADDPD       X8, X7, X7
	VHADDPD      X7, X7, X7
	VMOVSD       X7, 56(DX)
	VZEROUPPER
	RET

// func sumSquaresAVX(x *float64, n int) float64
//
// Two-chain squared-norm reduction over the first n elements.
TEXT ·sumSquaresAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $7, BX        // n % 8 != 0 → one leading 4-wide step
	JZ   loop8
	VMOVUPD (SI)(AX*1), Y2
	VFMADD231PD Y2, Y2, Y0
	ADDQ $32, AX
	SUBQ $4, CX
	JZ   reduce

loop8:
	VMOVUPD (SI)(AX*1), Y2
	VMOVUPD 32(SI)(AX*1), Y3
	VFMADD231PD Y2, Y2, Y0
	VFMADD231PD Y3, Y3, Y1
	ADDQ $64, AX
	SUBQ $8, CX
	JNZ  loop8

reduce:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0
	VMOVSD       X0, ret+16(FP)
	VZEROUPPER
	RET

// func addAVX(dst, x *float64, n int)
// dst[i] += x[i] for i < n. Element-wise IEEE adds, so the result is
// bit-identical to the scalar loop (unlike the kernels above).
TEXT ·addAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

addloop:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JNZ  addloop
	VZEROUPPER
	RET

// func axpyAVX(dst, x *float64, alpha float64, n int)
// dst[i] += alpha*x[i] for i < n: a multiply, then an add, each rounded
// — no FMA — so every lane rounds exactly like the scalar AXPYInPlace.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	VBROADCASTSD alpha+16(FP), Y0
	MOVQ         n+24(FP), CX
	XORQ         AX, AX

axpyloop:
	VMULPD  (SI)(AX*1), Y0, Y1
	VMOVUPD (DI)(AX*1), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX
	JNZ     axpyloop
	VZEROUPPER
	RET

DATA posInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL posInf<>(SB), RODATA|NOPTR, $8

// DIST turns the dot-product vector acc of lanes [off, off+32) of the
// current group into expanded distances d = (xn + bias) − 2·dot, stores
// them, and folds them into the per-lane smallest (Y10) and runner-up
// (Y11). NaN distances are first mapped to +Inf (VMINPD returns its
// second source when either is NaN), so they never compare.
// Registers: R9 bias, R10 d, BX group byte offset, Y12 xn, Y13 +Inf.
#define DIST(acc, off) \
	VADDPD  off(R9)(BX*1), Y12, Y14; \
	VADDPD  acc, acc, Y15; \
	VSUBPD  Y15, Y14, Y14; \
	VMOVUPD Y14, off(R10)(BX*1); \
	VMINPD  Y13, Y14, Y14; \
	VMAXPD  Y10, Y14, Y15; \
	VMINPD  Y10, Y14, Y10; \
	VMINPD  Y11, Y15, Y11

// ROWADDR loads column index k (+disp bytes) of the nonzero list and
// leaves the byte address of that transposed weight row in reg.
#define ROWADDR(disp, reg) \
	MOVLQSX disp(SI)(R13*4), reg; \
	IMULQ   R8, reg; \
	ADDQ    DI, reg

// PAIR loads nonzeros k and k+1 with one load of their two column
// indices and one of their two values: AX and R14 get the byte addresses
// of the two transposed weight rows, Y8 and Y9 the two broadcast values.
#define PAIR \
	MOVQ         (SI)(R13*4), AX; \
	MOVLQSX      AX, R14; \
	SARQ         $32, AX; \
	IMULQ        R8, R14; \
	IMULQ        R8, AX; \
	ADDQ         DI, R14; \
	ADDQ         DI, AX; \
	VMOVUPD      (DX)(R13*8), X8; \
	VPERMPD      $0x55, Y8, Y9; \
	VBROADCASTSD X8, Y8

// func scoreSparseAVX(wt *float64, ld int, cols *int32, vals *float64, nnz int, bias *float64, xn float64, d *float64) (min1, min2 float64, arg int)
//
// The sparse expanded-distance row of one record: for every lane u < ld,
// dot_u = Σ_k vals[k]·wt[cols[k]*ld + u] and d[u] = (xn + bias[u]) −
// 2·dot_u; returns the smallest and second-smallest d (NaN never
// compares; a tie at the minimum makes the runner-up equal to it) and
// the lowest lane holding the smallest (meaningful when it is below
// +Inf; -1 when no lane holds it). Lanes
// go 16 at a time (four vectors), then 8, then 4. In a 16-lane group the
// nonzeros alternate between two accumulator sets, so every vector has
// two independent FMA chains and the group keeps both FMA ports busy;
// the narrower groups, which have fewer vectors to overlap, take the
// nonzeros four at a time into four sets. ld must be a positive
// multiple of 4.
TEXT ·scoreSparseAVX(SB), NOSPLIT, $0-88
	MOVQ         wt+0(FP), DI
	MOVQ         ld+8(FP), R11
	MOVQ         cols+16(FP), SI
	MOVQ         vals+24(FP), DX
	MOVQ         nnz+32(FP), CX
	MOVQ         bias+40(FP), R9
	VBROADCASTSD xn+48(FP), Y12
	MOVQ         d+56(FP), R10
	MOVQ         R11, R8
	SHLQ         $3, R8                // transposed row stride in bytes
	VBROADCASTSD posInf<>(SB), Y13
	VMOVAPD      Y13, Y10
	VMOVAPD      Y13, Y11
	XORQ         BX, BX                // byte offset of the lane group

g16:
	CMPQ   R11, $16
	JLT    g8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   R13, R13
	MOVQ   CX, R12

pair16:
	CMPQ         R12, $2
	JLT          tail16
	PAIR
	VFMADD231PD  (R14)(BX*1), Y8, Y0
	VFMADD231PD  32(R14)(BX*1), Y8, Y1
	VFMADD231PD  64(R14)(BX*1), Y8, Y2
	VFMADD231PD  96(R14)(BX*1), Y8, Y3
	VFMADD231PD  (AX)(BX*1), Y9, Y4
	VFMADD231PD  32(AX)(BX*1), Y9, Y5
	VFMADD231PD  64(AX)(BX*1), Y9, Y6
	VFMADD231PD  96(AX)(BX*1), Y9, Y7
	ADDQ         $2, R13
	SUBQ         $2, R12
	JMP          pair16

tail16:
	TESTQ        R12, R12
	JZ           sum16
	ROWADDR(0, AX)
	VBROADCASTSD (DX)(R13*8), Y8
	VFMADD231PD  (AX)(BX*1), Y8, Y0
	VFMADD231PD  32(AX)(BX*1), Y8, Y1
	VFMADD231PD  64(AX)(BX*1), Y8, Y2
	VFMADD231PD  96(AX)(BX*1), Y8, Y3

sum16:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	DIST(Y0, 0)
	DIST(Y1, 32)
	DIST(Y2, 64)
	DIST(Y3, 96)
	ADDQ   $128, BX
	SUBQ   $16, R11
	JMP    g16

g8:
	CMPQ   R11, $8
	JLT    g4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   R13, R13
	MOVQ   CX, R12

quad8:
	CMPQ         R12, $4
	JLT          pair8
	PAIR
	VFMADD231PD  (R14)(BX*1), Y8, Y0
	VFMADD231PD  32(R14)(BX*1), Y8, Y1
	VFMADD231PD  (AX)(BX*1), Y9, Y4
	VFMADD231PD  32(AX)(BX*1), Y9, Y5
	ADDQ         $2, R13
	PAIR
	VFMADD231PD  (R14)(BX*1), Y8, Y2
	VFMADD231PD  32(R14)(BX*1), Y8, Y3
	VFMADD231PD  (AX)(BX*1), Y9, Y6
	VFMADD231PD  32(AX)(BX*1), Y9, Y7
	ADDQ         $2, R13
	SUBQ         $4, R12
	JMP          quad8

pair8:
	CMPQ         R12, $2
	JLT          tail8
	PAIR
	VFMADD231PD  (R14)(BX*1), Y8, Y0
	VFMADD231PD  32(R14)(BX*1), Y8, Y1
	VFMADD231PD  (AX)(BX*1), Y9, Y4
	VFMADD231PD  32(AX)(BX*1), Y9, Y5
	ADDQ         $2, R13
	SUBQ         $2, R12
	JMP          pair8

tail8:
	TESTQ        R12, R12
	JZ           sum8
	ROWADDR(0, AX)
	VBROADCASTSD (DX)(R13*8), Y8
	VFMADD231PD  (AX)(BX*1), Y8, Y0
	VFMADD231PD  32(AX)(BX*1), Y8, Y1

sum8:
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y5, Y5
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	DIST(Y0, 0)
	DIST(Y1, 32)
	ADDQ   $64, BX
	SUBQ   $8, R11

g4:
	CMPQ   R11, $4
	JLT    reduce
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ   R13, R13
	MOVQ   CX, R12

quad4:
	CMPQ         R12, $4
	JLT          pair4
	PAIR
	VFMADD231PD  (R14)(BX*1), Y8, Y0
	VFMADD231PD  (AX)(BX*1), Y9, Y4
	ADDQ         $2, R13
	PAIR
	VFMADD231PD  (R14)(BX*1), Y8, Y1
	VFMADD231PD  (AX)(BX*1), Y9, Y5
	ADDQ         $2, R13
	SUBQ         $4, R12
	JMP          quad4

pair4:
	CMPQ         R12, $2
	JLT          tail4
	PAIR
	VFMADD231PD  (R14)(BX*1), Y8, Y0
	VFMADD231PD  (AX)(BX*1), Y9, Y4
	ADDQ         $2, R13
	SUBQ         $2, R12
	JMP          pair4

tail4:
	TESTQ        R12, R12
	JZ           sum4
	ROWADDR(0, AX)
	VBROADCASTSD (DX)(R13*8), Y8
	VFMADD231PD  (AX)(BX*1), Y8, Y0

sum4:
	VADDPD Y1, Y0, Y0
	VADDPD Y5, Y4, Y4
	VADDPD Y4, Y0, Y0
	DIST(Y0, 0)

reduce:
	// Merge the per-lane (smallest, runner-up) pairs: for sorted pairs
	// (a1, a2) and (b1, b2) the merged pair is (min(a1, b1),
	// min(max(a1, b1), a2, b2)). High half into low, then lane 1 into 0.
	VEXTRACTF128 $1, Y10, X14
	VEXTRACTF128 $1, Y11, X15
	VMAXPD       X14, X10, X8
	VMINPD       X14, X10, X10
	VMINPD       X15, X11, X11
	VMINPD       X11, X8, X11
	VPERMILPD    $1, X10, X14
	VPERMILPD    $1, X11, X15
	VMAXPD       X14, X10, X8
	VMINPD       X14, X10, X10
	VMINPD       X15, X11, X11
	VMINPD       X11, X8, X11
	VMOVSD       X10, min1+64(FP)
	VMOVSD       X11, min2+72(FP)

	// The lowest lane whose distance equals the smallest, four lanes at
	// a time.
	VBROADCASTSD X10, Y12
	MOVQ         ld+8(FP), R11
	XORQ         AX, AX

argscan:
	CMPQ      AX, R11
	JGE       argnone
	VCMPPD    $0, (R10)(AX*8), Y12, Y14 // d == min1 (ordered)
	VMOVMSKPD Y14, CX
	TESTL     CX, CX
	JNZ       argfound
	ADDQ      $4, AX
	JMP       argscan

argfound:
	BSFL       CX, CX
	ADDQ       CX, AX
	MOVQ       AX, arg+80(FP)
	VZEROUPPER
	RET

argnone:
	MOVQ       $-1, arg+80(FP)
	VZEROUPPER
	RET
