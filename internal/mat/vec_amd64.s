//go:build !purego

#include "textflag.h"

// func axpyAVX(dst, x []float64, alpha float64)
//
// dst[i] += alpha · x[i]. Lanes are independent elements, so each element
// still sees exactly one VMULPD rounding and one VADDPD rounding — the same
// two roundings as the scalar statement (never FMA). Two 4-wide groups per
// iteration, then a 4-wide step, then a VEX-scalar tail (staying VEX avoids
// SSE/AVX transition stalls before VZEROUPPER).
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD alpha+48(FP), Y0

loop8:
	CMPQ CX, $8
	JL   loop4
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	VMOVUPD 32(SI), Y2
	VMULPD  Y2, Y0, Y2
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  loop8

loop4:
	CMPQ CX, $4
	JL   tail
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX

tail:
	TESTQ CX, CX
	JZ    done
	VMOVSD (SI), X1
	VMULSD X1, X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  tail

done:
	VZEROUPPER
	RET

// func rmspropAVX(dst, params, grads, msq []float64, lr, decay, rem, eps float64)
//
// One RMSProp update over whole 4-lane groups (the Go wrapper peels the
// ragged tail). Per element, in scalar evaluation order:
//
//	m      = decay·msq + (rem·g)·g
//	dst    = params − (lr·g) / (sqrt(m) + eps)
//
// Every packed operation (mul, add, sub, div, sqrt) is IEEE correctly
// rounded, identical to its scalar form, so lanes match the generic loop
// bitwise. len(grads) must be a multiple of 4; all slices share it.
TEXT ·rmspropAVX(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ params_base+24(FP), DX
	MOVQ grads_base+48(FP), SI
	MOVQ grads_len+56(FP), CX
	MOVQ msq_base+72(FP), BX
	VBROADCASTSD lr+96(FP), Y14
	VBROADCASTSD decay+104(FP), Y12
	VBROADCASTSD rem+112(FP), Y13
	VBROADCASTSD eps+120(FP), Y15
	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (SI), Y0         // g
	VMULPD  Y0, Y13, Y1      // rem·g
	VMULPD  Y0, Y1, Y1       // (rem·g)·g
	VMOVUPD (BX), Y2
	VMULPD  Y2, Y12, Y2      // decay·msq
	VADDPD  Y1, Y2, Y2       // m
	VMOVUPD Y2, (BX)
	VSQRTPD Y2, Y3           // sqrt(m)
	VADDPD  Y15, Y3, Y3      // sqrt(m)+eps
	VMULPD  Y0, Y14, Y4      // lr·g
	VDIVPD  Y3, Y4, Y4       // (lr·g)/(sqrt(m)+eps)
	VMOVUPD (DX), Y5
	VSUBPD  Y4, Y5, Y5       // params − step
	VMOVUPD Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop

done:
	VZEROUPPER
	RET

// func dotXT8AVX(w, xt, acc []float64)
//
// acc[r] += Σ_i w[i] · xt[i*8+r] for the 8 lanes r. Each lane is an
// independent batch row whose accumulation runs sequentially in i with one
// VMULPD and one VADDPD rounding per term — exactly the scalar chain, never
// FMA. Used for the remainder outputs of the short-batch forward; the
// 4-output variant below is the main kernel.
TEXT ·dotXT8AVX(SB), NOSPLIT, $0-72
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), CX
	MOVQ xt_base+24(FP), DX
	MOVQ acc_base+48(FP), DI
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	TESTQ CX, CX
	JZ    store1

dot1:
	VBROADCASTSD (SI), Y4
	VMULPD (DX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(DX), Y4, Y6
	VADDPD Y6, Y1, Y1
	ADDQ $8, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  dot1

store1:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func dotXT8x4AVX(w []float64, in int, xt, acc []float64)
//
// Four consecutive length-in rows of w against the shared 8-lane transposed
// batch: acc[j*8+r] += Σ_i w[j*in+i] · xt[i*8+r]. Interleaving four outputs
// keeps eight independent accumulator chains in flight so the broadcast/
// mul/add latency of any single chain is hidden; each (j, r) element still
// accumulates sequentially in i with scalar roundings.
TEXT ·dotXT8x4AVX(SB), NOSPLIT, $0-80
	MOVQ w_base+0(FP), SI
	MOVQ in+24(FP), CX
	MOVQ xt_base+32(FP), DX
	MOVQ acc_base+56(FP), DI
	MOVQ CX, AX
	SHLQ $3, AX              // w row stride in bytes
	LEAQ (SI)(AX*1), R8
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	TESTQ CX, CX
	JZ    store4

dot4:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1
	VBROADCASTSD (R8), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y3, Y3
	VBROADCASTSD (R9), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y5, Y5
	VBROADCASTSD (R10), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y7, Y7
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $64, DX
	DECQ CX
	JNZ  dot4

store4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func sumsq8AVX(g []float64, p *[8]float64)
//
// Accumulates eight independent sum-of-squares chains over whole 8-element
// groups: p[l] += Σ g[i*8+l]². The caller (SumSquares) owns the fixed-order
// reduction of the partials and the ragged tail, so this kernel and
// sumsq8Generic compute the identical eight values. len(g) must be a
// multiple of 8.
TEXT ·sumsq8AVX(SB), NOSPLIT, $0-32
	MOVQ g_base+0(FP), SI
	MOVQ g_len+8(FP), CX
	MOVQ p+24(FP), DI
	SHRQ $3, CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	TESTQ CX, CX
	JZ    ssdone

ssloop:
	VMOVUPD (SI), Y2
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD 32(SI), Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y1, Y1
	ADDQ $64, SI
	DECQ CX
	JNZ  ssloop

ssdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func scalAVX(dst []float64, s float64)
//
// dst[i] *= s. Independent elements, one correctly rounded multiply each —
// bitwise-identical to the scalar loop. VEX-scalar tail as in axpyAVX.
TEXT ·scalAVX(SB), NOSPLIT, $0-32
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y0

scloop8:
	CMPQ CX, $8
	JL   scloop4
	VMOVUPD (DI), Y1
	VMULPD  Y1, Y0, Y1
	VMOVUPD Y1, (DI)
	VMOVUPD 32(DI), Y2
	VMULPD  Y2, Y0, Y2
	VMOVUPD Y2, 32(DI)
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  scloop8

scloop4:
	CMPQ CX, $4
	JL   sctail
	VMOVUPD (DI), Y1
	VMULPD  Y1, Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, DI
	SUBQ $4, CX

sctail:
	TESTQ CX, CX
	JZ    scdone
	VMOVSD (DI), X1
	VMULSD X1, X0, X1
	VMOVSD X1, (DI)
	ADDQ $8, DI
	DECQ CX
	JMP  sctail

scdone:
	VZEROUPPER
	RET

// func conv4AVX(y, x, w, b []float64, ol int, pass uint64)
//
// One sample's responses to every kernel-4, stride-1 filter, four outputs
// per lane group: y[f*ol+t] = b[f] + w[4f]·x[t] + w[4f+1]·x[t+1] +
// w[4f+2]·x[t+2] + w[4f+3]·x[t+3], a filter's taps broadcast and its four
// products added in that order — per output the scalar loop's roundings
// (never FMA). The rectifier is a mask: VCMPPD $0x1E (greater-than, ordered,
// quiet) is all ones where the sum is > 0 and zero for ±0, negatives and NaN
// — exactly where Gate's mask is — OR-ed with pass and AND-ed into the sum. A
// filter's ragged tail re-runs its last full group: the stores are
// idempotent and stay inside the filter's own ol outputs. ol must be >= 4,
// len(x) ol+3, len(w) 4·len(b) and len(y) ol·len(b); Conv4To guarantees all
// four.
TEXT ·conv4AVX(SB), NOSPLIT, $0-112
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ b_base+72(FP), R8
	MOVQ b_len+80(FP), R9    // filters left
	MOVQ ol+96(FP), CX
	VBROADCASTSD pass+104(FP), Y5
	VXORPD Y6, Y6, Y6
	LEAQ -4(CX), BX          // the last full group's t
	LEAQ (CX*8), R10         // one filter's outputs, in bytes

cvfilter:
	TESTQ R9, R9
	JZ   cvdone
	VBROADCASTSD (DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3
	VBROADCASTSD (R8), Y4
	XORQ AX, AX              // t

cvloop:
	CMPQ AX, BX
	JLE  cvgroup
	CMPQ AX, CX
	JGE  cvnext
	MOVQ BX, AX              // 1-3 outputs left: back up over the last four

cvgroup:
	VMULPD (SI)(AX*8), Y0, Y7
	VADDPD Y7, Y4, Y8
	VMULPD 8(SI)(AX*8), Y1, Y7
	VADDPD Y7, Y8, Y8
	VMULPD 16(SI)(AX*8), Y2, Y7
	VADDPD Y7, Y8, Y8
	VMULPD 24(SI)(AX*8), Y3, Y7
	VADDPD Y7, Y8, Y8
	VCMPPD $0x1E, Y6, Y8, Y9
	VORPD  Y5, Y9, Y9
	VANDPD Y9, Y8, Y8
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ $4, AX
	JMP  cvloop

cvnext:
	ADDQ $32, DX
	ADDQ $8, R8
	ADDQ R10, DI
	DECQ R9
	JMP  cvfilter

cvdone:
	VZEROUPPER
	RET

DATA negzero<>+0(SB)/8, $0x8000000000000000
GLOBL negzero<>(SB), RODATA|NOPTR, $8

// func conv4GradAVX(gw, gb, dy, y, x []float64, ol int, pass uint64)
//
// One sample's terms of the filter and bias gradients of kernel-4, stride-1
// filters, four filters to a vector: for each group of four, the lanes are
// the filters, its taps' accumulators gw[4f+k] (transposed in from and back
// out to their filter-major layout) and gb[f] stay in registers while t
// walks the ol responses in ascending order. Each t gathers the four
// filters' response gradients dy[f*ol+t] and masks y[f*ol+t], gates the
// gradients as Gate does (VCMPPD $0x1E — greater-than, ordered, quiet — is
// all ones where the mask is > 0, OR-ed with pass and AND-ed into the
// gradient), and adds g to gb[f] and g·x[t+k] to gw[4f+k], VMULPD then
// VADDPD with the scalar loop's operand order (never FMA). The scalar loop
// skips a zero g; here VCMPPD $0x04 (not-equal, unordered) marks the lanes
// to keep — NaN included — and VBLENDVPD replaces the rest of the addends
// with -0.0, which leaves every accumulator's bits as they were (x + -0.0 is
// x for every x, -0 and +0 included, NaN but a signaling one). len(gb) must
// be a multiple of four, len(gw) 4·len(gb), len(dy) and len(y) ol·len(gb),
// len(x) ol+3 and ol >= 1; conv4Grad guarantees all of them.
TEXT ·conv4GradAVX(SB), NOSPLIT, $0-136
	MOVQ gw_base+0(FP), DI
	MOVQ gb_base+24(FP), BX
	MOVQ gb_len+32(FP), R11  // filters left
	MOVQ dy_base+48(FP), DX
	MOVQ y_base+72(FP), R8
	MOVQ x_base+96(FP), SI
	MOVQ ol+120(FP), CX
	VBROADCASTSD pass+128(FP), Y9
	VXORPD Y10, Y10, Y10
	VBROADCASTSD negzero<>(SB), Y11
	LEAQ (CX*8), R9          // one filter's responses, in bytes, and 3×
	LEAQ (R9)(R9*2), R10
	LEAQ (SI)(R9*1), R12     // x[ol]: where the window walk stops

cggroup:
	CMPQ R11, $4
	JLT  cgdone
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VUNPCKLPD Y1, Y0, Y12
	VUNPCKHPD Y1, Y0, Y13
	VUNPCKLPD Y3, Y2, Y14
	VUNPCKHPD Y3, Y2, Y15
	VPERM2F128 $0x20, Y14, Y12, Y0 // tap k's accumulators, one filter a lane
	VPERM2F128 $0x20, Y15, Y13, Y1
	VPERM2F128 $0x31, Y14, Y12, Y2
	VPERM2F128 $0x31, Y15, Y13, Y3
	VMOVUPD (BX), Y4
	MOVQ DX, R13             // &dy[f*ol+t], &y[f*ol+t], &x[t] of the group's first filter
	MOVQ R8, R14
	MOVQ SI, AX

cgt:
	VMOVSD (R13), X12
	VMOVHPD (R13)(R9*1), X12, X12
	VMOVSD (R13)(R9*2), X13
	VMOVHPD (R13)(R10*1), X13, X13
	VINSERTF128 $1, X13, Y12, Y12
	VMOVSD (R14), X13
	VMOVHPD (R14)(R9*1), X13, X13
	VMOVSD (R14)(R9*2), X14
	VMOVHPD (R14)(R10*1), X14, X14
	VINSERTF128 $1, X14, Y13, Y13
	VCMPPD $0x1E, Y10, Y13, Y13
	VORPD  Y9, Y13, Y13
	VANDPD Y13, Y12, Y12     // g
	VCMPPD $0x04, Y10, Y12, Y13
	VBLENDVPD Y13, Y12, Y11, Y14
	VADDPD Y14, Y4, Y4
	VBROADCASTSD (AX), Y14
	VMULPD Y14, Y12, Y14
	VBLENDVPD Y13, Y14, Y11, Y14
	VADDPD Y14, Y0, Y0
	VBROADCASTSD 8(AX), Y15
	VMULPD Y15, Y12, Y15
	VBLENDVPD Y13, Y15, Y11, Y15
	VADDPD Y15, Y1, Y1
	VBROADCASTSD 16(AX), Y14
	VMULPD Y14, Y12, Y14
	VBLENDVPD Y13, Y14, Y11, Y14
	VADDPD Y14, Y2, Y2
	VBROADCASTSD 24(AX), Y15
	VMULPD Y15, Y12, Y15
	VBLENDVPD Y13, Y15, Y11, Y15
	VADDPD Y15, Y3, Y3
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, AX
	CMPQ AX, R12
	JLT  cgt

	VUNPCKLPD Y1, Y0, Y12
	VUNPCKHPD Y1, Y0, Y13
	VUNPCKLPD Y3, Y2, Y14
	VUNPCKHPD Y3, Y2, Y15
	VPERM2F128 $0x20, Y14, Y12, Y0 // filter f's four taps again
	VPERM2F128 $0x20, Y15, Y13, Y1
	VPERM2F128 $0x31, Y14, Y12, Y2
	VPERM2F128 $0x31, Y15, Y13, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (BX)
	ADDQ $128, DI
	ADDQ $32, BX
	LEAQ (DX)(R9*4), DX
	LEAQ (R8)(R9*4), R8
	SUBQ $4, R11
	JMP  cggroup

cgdone:
	VZEROUPPER
	RET
