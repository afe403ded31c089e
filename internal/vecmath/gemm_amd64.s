// AVX2+FMA micro-kernels of the blocked BMU engine. Plan 9 assembler,
// operand order src..dst: VFMADD231PD a, b, c computes c += b*a.
//
// All kernels require n > 0 and n ≡ 0 (mod 4); the Go wrappers round
// the dimension down and add the scalar tail themselves. The dot-product
// kernels' accumulation order differs from the canonical scalar kernels
// by design — they feed the candidate generator only (see gemm.go).

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
