//go:build !purego

#include "textflag.h"

// func rmspropAVX(dst, params, grads, msq []float64, scale, lr, decay, rem, eps float64)
//
// One RMSProp update over whole 4-lane groups (the Go wrapper peels the
// ragged tail). Per element, in scalar evaluation order:
//
//	g      = grads·scale
//	m      = decay·msq + (rem·g)·g
//	dst    = params − (lr·g) / (sqrt(m) + eps)
//
// Every packed operation (mul, add, sub, div, sqrt) is IEEE correctly
// rounded, identical to its scalar form, and none is fused, so lanes match
// the generic loop bitwise. len(grads) must be a multiple of 4; all slices
// share it.
TEXT ·rmspropAVX(SB), NOSPLIT, $0-136
	MOVQ dst_base+0(FP), DI
	MOVQ params_base+24(FP), DX
	MOVQ grads_base+48(FP), SI
	MOVQ grads_len+56(FP), CX
	MOVQ msq_base+72(FP), BX
	VBROADCASTSD scale+96(FP), Y11
	VBROADCASTSD lr+104(FP), Y14
	VBROADCASTSD decay+112(FP), Y12
	VBROADCASTSD rem+120(FP), Y13
	VBROADCASTSD eps+128(FP), Y15
	TESTQ CX, CX
	JZ    done

loop:
	VMULPD  (SI), Y11, Y0    // g = grads·scale
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

// func conv4x4AVX(y, x, w, b []float64, ol int, pass uint64)
//
// One sample's responses to kernel-4, stride-1 filters, four filters per
// pass and four outputs per lane group: y[f*ol+t] = b[f] + w[4f]·x[t] +
// w[4f+1]·x[t+1] + w[4f+2]·x[t+2] + w[4f+3]·x[t+3], its four terms fused
// onto the bias in that order, one VFMADD231PD each — per output
// conv4Generic's math.FMA chain. A group loads the four shifted windows
// x[t+k .. t+k+3] once and feeds them to the pass's four filters: sixteen
// fused multiply-adds in four independent chains, on taps broadcast from
// w. A pass walks its groups in ascending t, so its four filters' outputs
// are written front to back before the next pass starts: at 1024 rows the
// front-end's output streams to memory, and walking every filter inside
// each group instead measured ≈40 % slower there. pass 0 rectifies with
// VMAXPD acc, +0: Intel's maximum returns its second source unless the
// first is greater, so ±0, negatives and NaN give +0 and every sum > 0 is
// kept — Gate(s, s, 0) bit for bit; any other pass stores the sums as they
// are. The ragged tail re-runs the last full group: the stores are
// idempotent and stay inside each filter's own ol outputs. It takes the
// leading 4·⌊len(b)/4⌋ filters and leaves the rest; ol must be >= 4,
// len(x) ol+3, len(w) 4·len(b) and len(y) ol·len(b), as Conv4To
// guarantees.
TEXT ·conv4x4AVX(SB), NOSPLIT, $0-112
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ b_base+72(FP), R8
	MOVQ b_len+80(FP), R9
	ANDQ $-4, R9             // whole passes of four filters; conv4 runs the rest
	JZ   cxdone
	MOVQ ol+96(FP), CX
	MOVQ pass+104(FP), R11
	VXORPD Y8, Y8, Y8
	LEAQ -4(CX), BX          // the last full group's t
	LEAQ (CX*8), R10         // one filter's outputs, in bytes, and 3×
	LEAQ (R10)(R10*2), R12

cxquad:
	XORQ AX, AX              // t

cxloop:
	CMPQ AX, BX
	JLE  cxgroup
	CMPQ AX, CX
	JGE  cxnext
	MOVQ BX, AX              // 1-3 outputs left: back up over the last four

cxgroup:
	VMOVUPD (SI)(AX*8), Y0   // Yk: x[t+k ..]
	VMOVUPD 8(SI)(AX*8), Y1
	VMOVUPD 16(SI)(AX*8), Y2
	VMOVUPD 24(SI)(AX*8), Y3
	VBROADCASTSD (R8), Y4
	VBROADCASTSD 8(R8), Y5
	VBROADCASTSD 16(R8), Y6
	VBROADCASTSD 24(R8), Y7
	VBROADCASTSD 0(DX), Y9
	VBROADCASTSD 32(DX), Y10
	VBROADCASTSD 64(DX), Y11
	VBROADCASTSD 96(DX), Y12
	VFMADD231PD Y9, Y0, Y4
	VFMADD231PD Y10, Y0, Y5
	VFMADD231PD Y11, Y0, Y6
	VFMADD231PD Y12, Y0, Y7
	VBROADCASTSD 8(DX), Y9
	VBROADCASTSD 40(DX), Y10
	VBROADCASTSD 72(DX), Y11
	VBROADCASTSD 104(DX), Y12
	VFMADD231PD Y9, Y1, Y4
	VFMADD231PD Y10, Y1, Y5
	VFMADD231PD Y11, Y1, Y6
	VFMADD231PD Y12, Y1, Y7
	VBROADCASTSD 16(DX), Y9
	VBROADCASTSD 48(DX), Y10
	VBROADCASTSD 80(DX), Y11
	VBROADCASTSD 112(DX), Y12
	VFMADD231PD Y9, Y2, Y4
	VFMADD231PD Y10, Y2, Y5
	VFMADD231PD Y11, Y2, Y6
	VFMADD231PD Y12, Y2, Y7
	VBROADCASTSD 24(DX), Y9
	VBROADCASTSD 56(DX), Y10
	VBROADCASTSD 88(DX), Y11
	VBROADCASTSD 120(DX), Y12
	VFMADD231PD Y9, Y3, Y4
	VFMADD231PD Y10, Y3, Y5
	VFMADD231PD Y11, Y3, Y6
	VFMADD231PD Y12, Y3, Y7
	TESTQ R11, R11
	JNZ  cxstore
	VMAXPD Y8, Y4, Y4
	VMAXPD Y8, Y5, Y5
	VMAXPD Y8, Y6, Y6
	VMAXPD Y8, Y7, Y7

cxstore:
	LEAQ (DI)(AX*8), R13
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, (R13)(R10*1)
	VMOVUPD Y6, (R13)(R10*2)
	VMOVUPD Y7, (R13)(R12*1)
	ADDQ $4, AX
	JMP  cxloop

cxnext:
	ADDQ $128, DX
	ADDQ $32, R8
	LEAQ (DI)(R10*4), DI
	SUBQ $4, R9
	JNZ  cxquad

cxdone:
	VZEROUPPER
	RET

// func conv4x4AVX512(y, x, w, b []float64, ol int, pass uint64)
//
// conv4x4AVX at eight outputs per ZMM group, each tap reaching its FMA as
// an embedded broadcast (VFMADD231PD.BCST), one instruction where AVX
// spends a broadcast and an FMA. Same contract, with ol >= 8.
TEXT ·conv4x4AVX512(SB), NOSPLIT, $0-112
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ b_base+72(FP), R8
	MOVQ b_len+80(FP), R9
	ANDQ $-4, R9             // whole passes of four filters; conv4 runs the rest
	JZ   czdone
	MOVQ ol+96(FP), CX
	MOVQ pass+104(FP), R11
	VPXORQ Z8, Z8, Z8
	LEAQ -8(CX), BX          // the last full group's t
	LEAQ (CX*8), R10         // one filter's outputs, in bytes, and 3×
	LEAQ (R10)(R10*2), R12

czquad:
	XORQ AX, AX              // t

czloop:
	CMPQ AX, BX
	JLE  czgroup
	CMPQ AX, CX
	JGE  cznext
	MOVQ BX, AX              // 1-7 outputs left: back up over the last eight

czgroup:
	VMOVUPD (SI)(AX*8), Z0   // Zk: x[t+k ..]
	VMOVUPD 8(SI)(AX*8), Z1
	VMOVUPD 16(SI)(AX*8), Z2
	VMOVUPD 24(SI)(AX*8), Z3
	VBROADCASTSD (R8), Z4
	VBROADCASTSD 8(R8), Z5
	VBROADCASTSD 16(R8), Z6
	VBROADCASTSD 24(R8), Z7
	VFMADD231PD.BCST 0(DX), Z0, Z4
	VFMADD231PD.BCST 32(DX), Z0, Z5
	VFMADD231PD.BCST 64(DX), Z0, Z6
	VFMADD231PD.BCST 96(DX), Z0, Z7
	VFMADD231PD.BCST 8(DX), Z1, Z4
	VFMADD231PD.BCST 40(DX), Z1, Z5
	VFMADD231PD.BCST 72(DX), Z1, Z6
	VFMADD231PD.BCST 104(DX), Z1, Z7
	VFMADD231PD.BCST 16(DX), Z2, Z4
	VFMADD231PD.BCST 48(DX), Z2, Z5
	VFMADD231PD.BCST 80(DX), Z2, Z6
	VFMADD231PD.BCST 112(DX), Z2, Z7
	VFMADD231PD.BCST 24(DX), Z3, Z4
	VFMADD231PD.BCST 56(DX), Z3, Z5
	VFMADD231PD.BCST 88(DX), Z3, Z6
	VFMADD231PD.BCST 120(DX), Z3, Z7
	TESTQ R11, R11
	JNZ  czstore
	VMAXPD Z8, Z4, Z4
	VMAXPD Z8, Z5, Z5
	VMAXPD Z8, Z6, Z6
	VMAXPD Z8, Z7, Z7

czstore:
	LEAQ (DI)(AX*8), R13
	VMOVUPD Z4, (R13)
	VMOVUPD Z5, (R13)(R10*1)
	VMOVUPD Z6, (R13)(R10*2)
	VMOVUPD Z7, (R13)(R12*1)
	ADDQ $8, AX
	JMP  czloop

cznext:
	ADDQ $128, DX
	ADDQ $32, R8
	LEAQ (DI)(R10*4), DI
	SUBQ $4, R9
	JNZ  czquad

czdone:
	VZEROUPPER
	RET

// func reluAVX(dst, x []float64)
//
// dst[i] = VMAXPD(x[i], +0): x[i] where x[i] > 0, +0 for ±0, negatives and
// NaN — Gate(x[i], x[i], 0) bit for bit (see conv4x4AVX) — over the
// leading 4·⌊len(x)/4⌋ elements, which len(dst) must cover; dst may be x.
TEXT ·reluAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VXORPD Y8, Y8, Y8
	SHRQ $2, CX
	JZ   rxdone

rxloop:
	VMOVUPD (SI), Y0
	VMAXPD  Y8, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  rxloop

rxdone:
	VZEROUPPER
	RET

// func reluAVX512(dst, x []float64)
//
// reluAVX eight elements to a ZMM, over the leading 8·⌊len(x)/8⌋.
TEXT ·reluAVX512(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VPXORQ Z8, Z8, Z8
	SHRQ $3, CX
	JZ   rzdone

rzloop:
	VMOVUPD (SI), Z0
	VMAXPD  Z8, Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  rzloop

rzdone:
	VZEROUPPER
	RET

// func reluGradAVX(dst, dy, x []float64)
//
// dst[i] = dy[i] where x[i] > 0, +0 elsewhere: VCMPPD $0x1E (greater-than,
// ordered, quiet) is all ones exactly where x[i] > 0 — zero for ±0,
// negatives and NaN, as Gate's mask is — and AND-ed into dy[i], whose bits
// it keeps whole: Gate(dy[i], x[i], 0). It runs over the leading
// 4·⌊len(x)/4⌋ elements, which len(dst) and len(dy) must cover; dst may be
// dy.
TEXT ·reluGradAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dy_base+24(FP), DX
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	VXORPD Y8, Y8, Y8
	SHRQ $2, CX
	JZ   gxdone

gxloop:
	VMOVUPD (SI), Y0
	VCMPPD  $0x1E, Y8, Y0, Y0
	VANDPD  (DX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  gxloop

gxdone:
	VZEROUPPER
	RET

// func reluGradAVX512(dst, dy, x []float64)
//
// reluGradAVX eight elements to a ZMM: the compare writes an opmask and a
// zero-masked load takes dy where it is set, +0 (all bits clear) elsewhere;
// over the leading 8·⌊len(x)/8⌋ elements.
TEXT ·reluGradAVX512(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dy_base+24(FP), DX
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	VPXORQ Z8, Z8, Z8
	SHRQ $3, CX
	JZ   gzdone

gzloop:
	VMOVUPD (SI), Z0
	VCMPPD  $0x1E, Z8, Z0, K1
	VMOVUPD.Z (DX), K1, Z1
	VMOVUPD Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	DECQ CX
	JNZ  gzloop

gzdone:
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
// gradient), and adds g to gb[f] and fuses g·x[t+k] onto gw[4f+k], one
// VFMADD213PD each — the scalar loop's math.FMA. The scalar loop skips a
// zero g; here VCMPPD $0x04 (not-equal, unordered) marks the lanes to keep —
// NaN included. For the bias VBLENDVPD replaces the rest of the addends with
// -0.0, which leaves the accumulator's bits as they were (x + -0.0 is x for
// every x, -0 and +0 included, NaN but a signaling one); for the taps it
// keeps the old accumulator in those lanes, since fma(0, x, acc) is not acc
// for acc = -0 or an infinite x. len(gb) must be a multiple of four, len(gw)
// 4·len(gb), len(dy) and len(y) ol·len(gb), len(x) ol+3 and ol >= 1;
// conv4Grad guarantees all of them.
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
	VFMADD213PD Y0, Y12, Y14
	VBLENDVPD Y13, Y14, Y0, Y0
	VBROADCASTSD 8(AX), Y15
	VFMADD213PD Y1, Y12, Y15
	VBLENDVPD Y13, Y15, Y1, Y1
	VBROADCASTSD 16(AX), Y14
	VFMADD213PD Y2, Y12, Y14
	VBLENDVPD Y13, Y14, Y2, Y2
	VBROADCASTSD 24(AX), Y15
	VFMADD213PD Y3, Y12, Y15
	VBLENDVPD Y13, Y15, Y3, Y3
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
