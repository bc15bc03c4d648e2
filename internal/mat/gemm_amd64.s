//go:build !purego

#include "textflag.h"

// func dotPack16AVX(a []float64, sa int, b []float64, sb int, acc []float64, k int, zero bool)
//
// acc[lane] += Σ_i a[i·sa] · b[i·sb+lane] for lane in 0..15 and i in
// 0..k-1, with each lane's accumulation strictly sequential in i — four
// 4-wide vector accumulators, one output column per lane, each term one
// VFMADD231PD: acc + a·b rounded once, the math.FMA of the scalar reference
// (gemm.go). sa and sb are the operands' k-strides in elements: 1 and 16 for
// a row of A against a packed tile, the matrices' widths where they are read
// in place. With zero set the accumulators start at +0 instead of acc's
// contents. a must span [0, (k-1)·sa], b [0, (k-1)·sb+16) and acc 16; the
// caller (dotPackRows) slices exactly those spans.
TEXT ·dotPack16AVX(SB), NOSPLIT, $0-97
	MOVQ a_base+0(FP), SI
	MOVQ sa+24(FP), R8
	MOVQ b_base+32(FP), DX
	MOVQ sb+56(FP), R9
	MOVQ acc_base+64(FP), DI
	MOVQ k+88(FP), CX
	SHLQ $3, R8             // k-strides in bytes
	SHLQ $3, R9
	MOVBLZX zero+96(FP), AX
	TESTQ AX, AX
	JNZ  fresh
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	JMP  start

fresh:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

start:
	TESTQ CX, CX
	JZ   done

loop:
	VBROADCASTSD (SI), Y4
	VFMADD231PD (DX), Y4, Y0
	VFMADD231PD 32(DX), Y4, Y1
	VFMADD231PD 64(DX), Y4, Y2
	VFMADD231PD 96(DX), Y4, Y3
	ADDQ R8, SI
	ADDQ R9, DX
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func dotPack16x8AVX512(a []float64, lda, sa int, b []float64, sb int, c []float64, ldc, k int, zero bool)
//
// dotPack16AVX for eight rows at once: c[r·ldc+lane] += Σ_i a[r·lda+i·sa] ·
// b[i·sb+lane] for r in 0..7, lane in 0..15. Each row owns two 8-wide
// accumulators, so sixteen FMA chains are in flight where the one-row kernel
// has four — that kernel retires one VFMADD231PD per FMA latency, this one
// is bound by the two FP ports — and each k-step's two loads of b serve
// eight rows. Rows are independent output elements: every element is still
// seeded from c (or +0 with zero set), sequential in i, one fused
// multiply-add per term, so it leaves that kernel's bits. lda is A's row
// stride in elements — 1 where A is a matrix read transposed.
// a must span [0, 7·lda+(k-1)·sa], b [0, (k-1)·sb+16) and c [0, 7·ldc+16);
// the caller (dotPackRows) slices exactly those spans, so the bounds are
// checked before control arrives here.
TEXT ·dotPack16x8AVX512(SB), NOSPLIT, $0-113
	MOVQ a_base+0(FP), SI
	MOVQ lda+24(FP), R8
	MOVQ b_base+40(FP), DX
	MOVQ c_base+72(FP), DI
	MOVQ ldc+96(FP), R12
	MOVQ k+104(FP), CX
	SHLQ $3, R8             // row strides in bytes, and their 3×, 5×, 7×
	SHLQ $3, R12
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	LEAQ (R12)(R12*2), R13
	MOVBLZX zero+112(FP), AX
	TESTQ AX, AX
	JNZ  fresh8
	LEAQ (R12)(R12*4), AX
	LEAQ (R13)(R12*4), BX
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(R12*1), Z2
	VMOVUPD 64(DI)(R12*1), Z3
	VMOVUPD (DI)(R12*2), Z4
	VMOVUPD 64(DI)(R12*2), Z5
	VMOVUPD (DI)(R13*1), Z6
	VMOVUPD 64(DI)(R13*1), Z7
	VMOVUPD (DI)(R12*4), Z8
	VMOVUPD 64(DI)(R12*4), Z9
	VMOVUPD (DI)(AX*1), Z10
	VMOVUPD 64(DI)(AX*1), Z11
	VMOVUPD (DI)(R13*2), Z12
	VMOVUPD 64(DI)(R13*2), Z13
	VMOVUPD (DI)(BX*1), Z14
	VMOVUPD 64(DI)(BX*1), Z15
	JMP  start8

fresh8:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

start8:
	MOVQ sa+32(FP), AX      // the k-strides in bytes: AX and BX hold c's 5× and 7× row strides only outside the loop
	MOVQ sb+64(FP), BX
	SHLQ $3, AX
	SHLQ $3, BX
	TESTQ CX, CX
	JZ   done8

loop8:
	VMOVUPD (DX), Z16
	VMOVUPD 64(DX), Z17
	VBROADCASTSD (SI), Z18
	VFMADD231PD Z16, Z18, Z0
	VFMADD231PD Z17, Z18, Z1
	VBROADCASTSD (SI)(R8*1), Z21
	VFMADD231PD Z16, Z21, Z2
	VFMADD231PD Z17, Z21, Z3
	VBROADCASTSD (SI)(R8*2), Z18
	VFMADD231PD Z16, Z18, Z4
	VFMADD231PD Z17, Z18, Z5
	VBROADCASTSD (SI)(R9*1), Z21
	VFMADD231PD Z16, Z21, Z6
	VFMADD231PD Z17, Z21, Z7
	VBROADCASTSD (SI)(R8*4), Z18
	VFMADD231PD Z16, Z18, Z8
	VFMADD231PD Z17, Z18, Z9
	VBROADCASTSD (SI)(R10*1), Z21
	VFMADD231PD Z16, Z21, Z10
	VFMADD231PD Z17, Z21, Z11
	VBROADCASTSD (SI)(R9*2), Z18
	VFMADD231PD Z16, Z18, Z12
	VFMADD231PD Z17, Z18, Z13
	VBROADCASTSD (SI)(R11*1), Z21
	VFMADD231PD Z16, Z21, Z14
	VFMADD231PD Z17, Z21, Z15
	ADDQ AX, SI
	ADDQ BX, DX
	DECQ CX
	JNZ  loop8

done8:
	LEAQ (R12)(R12*4), AX
	LEAQ (R13)(R12*4), BX
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R12*1)
	VMOVUPD Z3, 64(DI)(R12*1)
	VMOVUPD Z4, (DI)(R12*2)
	VMOVUPD Z5, 64(DI)(R12*2)
	VMOVUPD Z6, (DI)(R13*1)
	VMOVUPD Z7, 64(DI)(R13*1)
	VMOVUPD Z8, (DI)(R12*4)
	VMOVUPD Z9, 64(DI)(R12*4)
	VMOVUPD Z10, (DI)(AX*1)
	VMOVUPD Z11, 64(DI)(AX*1)
	VMOVUPD Z12, (DI)(R13*2)
	VMOVUPD Z13, 64(DI)(R13*2)
	VMOVUPD Z14, (DI)(BX*1)
	VMOVUPD Z15, 64(DI)(BX*1)
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
