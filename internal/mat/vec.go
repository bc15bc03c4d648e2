package mat

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds flat-vector kernels shared by the training hot path and
// the conv front-end: the gradient norm, the rectifier and its gradient, the
// paper-shape convolution and the RMSProp parameter step applied on every
// update. Each is elementwise or a fixed set of independent chains, so the
// AVX implementations (vec_amd64.s) vectorize across elements while each
// element keeps exactly the scalar operation sequence and roundings — fused
// where the loop calls math.FMA, separate where it rounds with float64() —
// preserving the bitwise contract the training-engine equivalence tests pin.

// SumSquares returns Σ g[i]² accumulated in eight independent chains (lane l
// sums g[i*8+l]²), reduced in a fixed order, with a sequential scalar tail.
// The chain split hides the add latency that serializes a single-chain sum;
// the AVX kernel computes the identical eight partials, so both platforms
// return the same bits. Note the result differs from a single sequential
// chain — callers adopting this reassociate their norm. Squares and sums
// round separately (not fused): the norm is no product a kernel shares.
func SumSquares(g []float64) float64 {
	var p [8]float64
	n := len(g) &^ 7
	if n > 0 {
		sumsq8(g[:n], &p)
	}
	ss := ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
	for _, v := range g[n:] {
		ss += float64(v * v)
	}
	return ss
}

// sumsq8Generic is the scalar reference for the 8-chain partial sums: chain
// l takes g[l], g[8+l], … in order. len(g) must be a multiple of 8.
func sumsq8Generic(g []float64, p *[8]float64) {
	for i, v := range g {
		p[i%8] += float64(v * v)
	}
}

// Gate returns v where by > 0 and +0 elsewhere, without a branch: the
// rectifier is Gate(v, v, 0) and its gradient Gate(dy, x, 0) — the portable
// tier of ReluTo, ReluGradTo and Conv4To and the oracle their vector tiers
// are held to. It is branch-free because on activations of random sign the
// branch of `v > 0 ? v : 0` mispredicts every other element (≈5 ns against
// <1). The floats greater than zero are exactly the bit patterns from 1 (the
// smallest subnormal) to +Inf's; ±0, every negative and every NaN — of
// either sign, which a test of the sign bit alone would let through — fall
// outside, as they fail `by > 0`. pass is ORed into the mask: all ones opens the gate
// whatever by is, for the conv loops, which run with and without a
// rectifier behind them.
func Gate(v, by float64, pass uint64) float64 {
	const posInf = 0x7FF0000000000000
	_, borrow := bits.Sub64(math.Float64bits(by)-1, posInf, 0)
	return math.Float64frombits(math.Float64bits(v) & (-borrow | pass))
}

// ReluTo writes the rectifier of x into dst: dst[i] = Gate(x[i], x[i], 0),
// x[i] where it is > 0 and +0 for ±0, negatives and NaN. dst may be x; its
// length must be x's. The vector tiers take it with one VMAXPD per vector
// (vec_amd64.s says why that is Gate bit for bit).
func ReluTo(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("mat: ReluTo %d outputs of %d inputs", len(dst), len(x)))
	}
	relu(dst, x)
}

// ReluGradTo writes the rectifier's gradient mask into dst: dst[i] =
// Gate(dy[i], x[i], 0), dy[i]'s bits where x[i] > 0 and +0 elsewhere. dst
// may be dy; all three lengths must agree.
func ReluGradTo(dst, dy, x []float64) {
	if len(dst) != len(x) || len(dy) != len(x) {
		panic(fmt.Sprintf("mat: ReluGradTo %d outputs of %d gradients and %d inputs", len(dst), len(dy), len(x)))
	}
	reluGrad(dst, dy, x)
}

// reluGeneric and reluGradGeneric are the portable tier of ReluTo and
// ReluGradTo: Gate, element by element.
func reluGeneric(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = Gate(v, v, 0)
	}
}

func reluGradGeneric(dst, dy, x []float64) {
	dst, dy = dst[:len(x)], dy[:len(x)]
	for i, v := range x {
		dst[i] = Gate(dy[i], v, 0)
	}
}

// Conv4To is the conv front-end's inner loops at the paper's shape, one
// sample's responses to every kernel-4, stride-1 filter: with ol = len(x)-3
// outputs per filter, channel-major, y[f·ol+t] = b[f] + w[4f]·x[t] +
// w[4f+1]·x[t+1] + w[4f+2]·x[t+2] + w[4f+3]·x[t+3], each term fused onto the
// running sum in that order (nn's scalar test oracle's for a Conv1D), then
// gated on its own sign — pass 0 rectifies, all ones lets every response
// through (see Gate). Outputs are independent elements, so the vector
// kernels (vec_amd64.s) — four filters a pass sharing each group's four
// shifted windows, eight outputs to a vector with AVX-512 and four with AVX
// — leave the bits of conv4Generic, which takes the filters past the last
// multiple of four and any ol too short for a vector.
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
// for the same fused multiply-adds in the same order.
func conv4Generic(y, x, w, b []float64, ol int, pass uint64) {
	for f, bias := range b {
		w0, w1, w2, w3 := w[4*f], w[4*f+1], w[4*f+2], w[4*f+3]
		out := y[f*ol : (f+1)*ol]
		for t := range out {
			win := x[t : t+4 : t+4]
			s := math.FMA(w0, win[0], bias)
			s = math.FMA(w1, win[1], s)
			s = math.FMA(w2, win[2], s)
			s = math.FMA(w3, win[3], s)
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
// is not ±0 adds g to gb[f] and then fuses g·x[t+k] onto gw[4f+k] — the
// terms of nn's scalar filter-gradient loop, which the caller runs over the
// filters left, in its order, bit for bit (see vec_amd64.s for how the skip
// stays exact without a branch).
func Conv4GradTo(gw, gb, dy, y, x []float64, pass uint64) int {
	ol, nf := len(x)-3, len(gb)
	if ol < 1 || len(gw) != 4*nf || len(dy) != ol*nf || len(y) != ol*nf {
		panic(fmt.Sprintf("mat: Conv4GradTo %d filters' %d taps, %d gradients and %d masks over %d inputs", nf, len(gw), len(dy), len(y), len(x)))
	}
	return conv4Grad(gw, gb, dy, y, x, ol, pass)
}

// RMSPropStep applies one RMSProp update over flat vectors, the gradient
// scaled by scale (a clip factor; 1 leaves it as it is):
//
//	g      = grads[i]*scale
//	msq[i] = decay*msq[i] + (1-decay)*g*g
//	dst[i] = params[i] - lr*g / (sqrt(msq[i]) + eps)
//
// dst may alias params; grads is only read. All four slices must share a
// length. Every operation is elementwise, IEEE correctly rounded (including
// packed sqrt and divide) and rounded on its own — g too, so a scale folded
// in here leaves the bits of scaling grads first — and the AVX path produces
// bitwise-identical results to the scalar loop. nn.RMSProp routes its step
// here.
func RMSPropStep(dst, params, grads, msq []float64, scale, lr, decay, eps float64) {
	if len(params) != len(grads) || len(dst) != len(grads) || len(msq) != len(grads) {
		panic("mat: RMSPropStep length mismatch")
	}
	rmspropVec(dst, params, grads, msq, scale, lr, decay, 1-decay, eps)
}

// rmspropGeneric is the scalar reference for RMSPropStep: each element's
// arithmetic is the plain scalar expression, every product rounded before it
// is added.
func rmspropGeneric(dst, params, grads, msq []float64, scale, lr, decay, rem, eps float64) {
	for i := range grads {
		g := float64(grads[i] * scale)
		m := float64(decay*msq[i]) + float64(rem*g*g)
		msq[i] = m
		dst[i] = params[i] - lr*g/(math.Sqrt(m)+eps)
	}
}
