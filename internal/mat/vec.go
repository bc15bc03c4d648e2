package mat

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds flat-vector kernels shared by the training hot path: an
// accumulating axpy used by the short-batch gradient products in grad.go and
// the RMSProp parameter step applied on every update. Both are elementwise —
// distinct indices never interact — so the AVX implementations (vec_amd64.s)
// vectorize across elements while each element keeps exactly the scalar
// operation sequence and roundings, preserving the bitwise contract the
// training-engine equivalence tests pin.

// axpy accumulates dst[i] += alpha * x[i]. Each element receives exactly one
// product rounding and one addition rounding, identical to the scalar
// statement, so the vectorized implementation is bitwise-equal to
// axpyGeneric. len(x) must be >= len(dst).
func axpyGeneric(dst, x []float64, alpha float64) {
	_ = x[len(dst)-1]
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

// dotXT8Generic is the scalar reference for the 8-lane column kernel:
// acc[r] += Σ_i w[i] · xt[i*8+r], every lane's accumulation sequential in i.
func dotXT8Generic(w, xt, acc []float64) {
	for i, wv := range w {
		lrow := xt[i*laneWidth : i*laneWidth+laneWidth]
		for r, xv := range lrow {
			acc[r] += wv * xv
		}
	}
}

// dotXT8x4Generic runs dotXT8Generic for four consecutive length-in rows of
// w into four lane groups of acc.
func dotXT8x4Generic(w []float64, in int, xt, acc []float64) {
	for j := 0; j < 4; j++ {
		dotXT8Generic(w[j*in:(j+1)*in], xt, acc[j*laneWidth:(j+1)*laneWidth])
	}
}

// SumSquares returns Σ g[i]² accumulated in eight independent chains (lane l
// sums g[i*8+l]²), reduced in a fixed order, with a sequential scalar tail.
// The chain split hides the add latency that serializes a single-chain sum;
// the AVX kernel computes the identical eight partials, so both platforms
// return the same bits. Note the result differs from a single sequential
// chain — callers adopting this reassociate their norm.
func SumSquares(g []float64) float64 {
	var p [8]float64
	n := len(g) &^ 7
	if n > 0 {
		sumsq8(g[:n], &p)
	}
	ss := ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
	for _, v := range g[n:] {
		ss += v * v
	}
	return ss
}

// sumsq8Generic is the scalar reference for the 8-chain partial sums;
// len(g) must be a multiple of 8.
func sumsq8Generic(g []float64, p *[8]float64) {
	for i := 0; i+8 <= len(g); i += 8 {
		p[0] += g[i] * g[i]
		p[1] += g[i+1] * g[i+1]
		p[2] += g[i+2] * g[i+2]
		p[3] += g[i+3] * g[i+3]
		p[4] += g[i+4] * g[i+4]
		p[5] += g[i+5] * g[i+5]
		p[6] += g[i+6] * g[i+6]
		p[7] += g[i+7] * g[i+7]
	}
}

// ScaleVec multiplies every element of dst by s. Elements are independent
// and each receives exactly one multiply rounding, so the vectorized form is
// bitwise-identical to the scalar loop. (Scale in mat.go is the Matrix
// variant.)
func ScaleVec(dst []float64, s float64) { scal(dst, s) }

func scalGeneric(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}

// Gate returns v where by > 0 and +0 elsewhere, without a branch: the
// rectifier is Gate(v, v, 0) and its gradient Gate(dy, x, 0). The batched
// loops use it because on activations of random sign the branch of
// `v > 0 ? v : 0` mispredicts every other element (≈5 ns against <1). The
// floats greater than zero are exactly the bit patterns from 1 (the smallest
// subnormal) to +Inf's; ±0, every negative and every NaN — of either sign,
// which a test of the sign bit alone would let through — fall outside, as
// they fail `by > 0`. pass is ORed into the mask: all ones opens the gate
// whatever by is, for the conv loops, which run with and without a
// rectifier behind them.
func Gate(v, by float64, pass uint64) float64 {
	const posInf = 0x7FF0000000000000
	_, borrow := bits.Sub64(math.Float64bits(by)-1, posInf, 0)
	return math.Float64frombits(math.Float64bits(v) & (-borrow | pass))
}

// Conv4To is the conv front-end's inner loops at the paper's shape, one
// sample's responses to every kernel-4, stride-1 filter: with ol = len(x)-3
// outputs per filter, channel-major, y[f·ol+t] = b[f] + w[4f]·x[t] +
// w[4f+1]·x[t+1] + w[4f+2]·x[t+2] + w[4f+3]·x[t+3], added in that order (nn's
// scalar test oracle's for a Conv1D), then gated on its own sign — pass 0
// rectifies, all ones lets every response through (see Gate). Outputs are
// independent elements, so the AVX body (vec_amd64.s), four of them to a
// vector, leaves the bits of conv4Generic.
func Conv4To(y, x, w, b []float64, pass uint64) {
	ol := len(x) - 3
	if ol < 1 || len(w) != 4*len(b) || len(y) != ol*len(b) {
		panic(fmt.Sprintf("mat: Conv4To %d outputs of %d filters over %d inputs and %d taps", len(y), len(b), len(x), len(w)))
	}
	conv4(y, x, w, b, ol, pass)
}

// conv4Generic is Conv4To's portable body. A filter's taps are held in
// registers and the loop over them is written out, which halves its cost
// against a loop over the taps (5.5 against 11.4 µs per row at 128 filters)
// for the same additions in the same order.
func conv4Generic(y, x, w, b []float64, ol int, pass uint64) {
	for f, bias := range b {
		w0, w1, w2, w3 := w[4*f], w[4*f+1], w[4*f+2], w[4*f+3]
		out := y[f*ol : (f+1)*ol]
		for t := range out {
			win := x[t : t+4 : t+4]
			s := bias
			s += w0 * win[0]
			s += w1 * win[1]
			s += w2 * win[2]
			s += w3 * win[3]
			out[t] = Gate(s, s, pass)
		}
	}
}

// Conv4GradTo accumulates one sample's terms of the gradients of Conv4To's
// filters — kernel 4, stride 1, ol = len(x)-3 responses per filter,
// channel-major — for as many of them as the vector kernel takes, and
// returns that count: the leading 4·⌊len(gb)/4⌋ filters where the CPU has
// AVX, none on builds and CPUs without it. For each filter f it takes, with
// g = Gate(dy[f·ol+t], y[f·ol+t], pass), every t in ascending order whose g
// is not ±0 adds g to gb[f] and then g·x[t+k] to gw[4f+k] — the terms of nn's
// scalar filter-gradient loop, which the caller runs over the filters left,
// in its order, bit for bit (see vec_amd64.s for how the skip stays exact
// without a branch).
func Conv4GradTo(gw, gb, dy, y, x []float64, pass uint64) int {
	ol, nf := len(x)-3, len(gb)
	if ol < 1 || len(gw) != 4*nf || len(dy) != ol*nf || len(y) != ol*nf {
		panic(fmt.Sprintf("mat: Conv4GradTo %d filters' %d taps, %d gradients and %d masks over %d inputs", nf, len(gw), len(dy), len(y), len(x)))
	}
	return conv4Grad(gw, gb, dy, y, x, ol, pass)
}

// RMSPropStep applies one RMSProp update over flat vectors:
//
//	msq[i] = decay*msq[i] + (1-decay)*g*g
//	dst[i] = params[i] - lr*g / (sqrt(msq[i]) + eps)
//
// dst may alias params. All four slices must share a length. Every operation
// is elementwise and IEEE correctly rounded (including packed sqrt and
// divide), so the AVX path produces bitwise-identical results to the scalar
// loop — nn.RMSProp routes its step here.
func RMSPropStep(dst, params, grads, msq []float64, lr, decay, eps float64) {
	if len(params) != len(grads) || len(dst) != len(grads) || len(msq) != len(grads) {
		panic("mat: RMSPropStep length mismatch")
	}
	rmspropVec(dst, params, grads, msq, lr, decay, 1-decay, eps)
}

// rmspropGeneric is the scalar reference for RMSPropStep. Four independent
// element chains run per iteration so the long-latency sqrt/divide operations
// overlap; each element's own arithmetic is the plain scalar expression.
func rmspropGeneric(dst, params, grads, msq []float64, lr, decay, rem, eps float64) {
	i := 0
	for ; i+4 <= len(grads); i += 4 {
		g0, g1, g2, g3 := grads[i], grads[i+1], grads[i+2], grads[i+3]
		m0 := decay*msq[i] + rem*g0*g0
		m1 := decay*msq[i+1] + rem*g1*g1
		m2 := decay*msq[i+2] + rem*g2*g2
		m3 := decay*msq[i+3] + rem*g3*g3
		msq[i], msq[i+1], msq[i+2], msq[i+3] = m0, m1, m2, m3
		dst[i] = params[i] - lr*g0/(math.Sqrt(m0)+eps)
		dst[i+1] = params[i+1] - lr*g1/(math.Sqrt(m1)+eps)
		dst[i+2] = params[i+2] - lr*g2/(math.Sqrt(m2)+eps)
		dst[i+3] = params[i+3] - lr*g3/(math.Sqrt(m3)+eps)
	}
	for ; i < len(grads); i++ {
		g := grads[i]
		m := decay*msq[i] + rem*g*g
		msq[i] = m
		dst[i] = params[i] - lr*g/(math.Sqrt(m)+eps)
	}
}
