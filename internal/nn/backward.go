package nn

import (
	"fmt"
	"math"

	"minicost/internal/mat"
)

// Batched backward: BackwardBatch back-propagates a whole batch of output
// gradients (one per matrix row) through a layer in one pass, accumulating
// parameter gradients and returning the batch of input gradients. It is the
// training-side counterpart of ForwardBatch and must follow the ForwardBatch
// whose retained activations it consumes.
//
// Exactness: the scalar oracle (oracle_test.go) processes the batch row by
// row, so every parameter-gradient element receives its per-row terms in
// ascending row order, each fused (math.FMA) or, for a bias, added onto the
// element's running value one at a time. The batched kernels keep exactly
// that order — Dense's weight gradient runs dW += dYᵀ·X through
// mat.AddMulTransATo or mat.MulPackAccTo (both row-sequential, seeded from
// the existing gradient), Conv1D rereads the input windows from the
// retained batch with the oracle's zero-gradient skip, and the
// input-gradient products seed at zero and walk the output dimension in
// index order, matching the per-sample loops term for term.
// Batched training is therefore bitwise identical to the per-sample loop,
// which this package's bitwise tests and rl's per-row oracle test pin down.
//
// Buffer ownership matches ForwardBatch: returned matrices are owned by the
// layer and overwritten by its next BackwardBatch call; scratch grows to the
// largest batch seen, so steady-state batched training performs no
// allocations. Like ForwardBatch, every pass runs on the calling goroutine.
//
// Each layer has one implementation, backwardBatch, which can leave the input
// gradient out: a network's first layer differentiates with respect to the
// features, and a training update has no use for that (Network.BackwardParams).

// BackwardBatch implements the batched gradient pass for Dense. Three
// products, each in the oracle's accumulation order:
//
//	db[o] += Σ_r dy[r][o]          (r ascending, seeded from the live grad)
//	dW[o][i] += Σ_r dy[r][o]·x[r][i]  (r ascending, seeded from the live grad)
//	dx[r][i] = Σ_o dy[r][o]·w[o][i]   (o ascending, seeded at zero)
//
// The bias gradient is one loop over dy's columns; the two products run on
// the packed SIMD kernel at every batch length, by one of two routes chosen
// by the input width alone.
//
//   - Where the input is under 512 columns wide (mat.InPlaceCols) every
//     operand is read where it lies: dW against dy read transposed and the
//     retained input batch (mat.AddMulTransATo), dx against the weights
//     (mat.MulTo).
//   - Wider inputs — boot64's 806, the paper network's 3206 — trained no
//     slower packed (DESIGN §10): the weights, then the input batch, are
//     packed transposed into the forward pack's buffer, which voids it, and
//     dW multiplies dy transposed against the input batch's pack
//     (mat.MulPackAccTo).
//
// Neither route zeroes dx first, only the wide one transposes dy, and both
// share the accumulation-order contract, so each is bitwise identical to
// the oracle.
func (d *Dense) BackwardBatch(dy *mat.Matrix) *mat.Matrix {
	return d.backwardBatch(dy, true)
}

// backwardBatch is BackwardBatch with the dx product — a GEMM as large as
// the forward's — optional.
func (d *Dense) backwardBatch(dy *mat.Matrix, inputGrad bool) *mat.Matrix {
	if d.bx == nil {
		panic("nn: Dense BackwardBatch before ForwardBatch")
	}
	if d.frozen {
		panic("nn: Dense BackwardBatch on a frozen layer")
	}
	if dy.Cols != d.Out || dy.Rows != d.bx.Rows {
		panic(fmt.Sprintf("nn: Dense BackwardBatch %dx%d, want %dx%d", dy.Rows, dy.Cols, d.bx.Rows, d.Out))
	}
	if d.gView == nil {
		d.gView = &mat.Matrix{Rows: d.Out, Cols: d.In}
	}
	d.gView.Data = d.w.Grad
	if d.wView == nil {
		d.wView = &mat.Matrix{Rows: d.Out, Cols: d.In}
	}
	d.wView.Data = d.w.Value
	for o := 0; o < d.Out; o++ {
		s := d.b.Grad[o]
		for r := 0; r < dy.Rows; r++ {
			s += dy.Data[r*d.Out+o]
		}
		d.b.Grad[o] = s
	}
	if mat.InPlaceCols(d.In) {
		mat.AddMulTransATo(d.gView, dy, d.bx)
		if inputGrad {
			d.bdx = mat.MulTo(d.bdx, dy, d.wView)
		}
	} else {
		// The two packs take turns in the forward pack's buffer — dx reads
		// the weights' and is done with it before dW needs the input
		// batch's — which holds the weights either way round, so a hidden
		// layer's (≈3 MB at the paper's width) is allocated once per
		// TrainFrom call; an output layer's input-batch pack is larger, and
		// grows it once.
		d.packed = false
		if inputGrad {
			d.wpack = mat.PackTransposeTo(d.wpack, d.wView)
			d.bdx = mat.MulPackTransBBiasRowsTo(d.bdx, dy, d.wpack, nil, 0, dy.Rows)
		}
		d.wpack = mat.PackTransposeTo(d.wpack, d.bx)
		d.dyT = mat.TransposeTo(d.dyT, dy)
		mat.MulPackAccTo(d.gView, d.dyT, d.wpack, 1)
	}
	if !inputGrad {
		return nil
	}
	return d.bdx
}

// BackwardBatch implements the batched gradient pass for Conv1D — and for
// the front-end Split runs through it — as the mirror of forward: the
// leading columns of dy's rows are the gradient of the responses, the
// leading InLen columns of the result's rows the gradient of the windows,
// and the columns beyond the responses in dy are copied behind them (the
// tail forward passed through). The windows are read from the retained
// input batch — row r's position t starts at column t·Stride — and, when the
// forward pass rectified, the ReLU's gradient is applied on the way in from
// its retained output: a response's gradient counts only where the
// rectified response is positive (y > 0 ⇔ the response was).
//
// Two passes, both preserving the oracle's `g == 0` skip (rewards are
// often zero early in a trace, so whole timesteps of critic gradient vanish
// — as does every rectified-away response's — and the skip is both a real
// win and part of the bitwise contract):
//
//   - parameter gradients: a filter's accumulators receive their terms in
//     (row, position) ascending order — the order the oracle's per-sample
//     f-loop contributes them to that filter — and distinct filters touch
//     disjoint gradient elements, so the element-wise accumulation order is
//     the oracle's however the filters are interleaved (filterGrads);
//   - input gradients: row-major with the oracle's f-outer/t-inner walk,
//     each output row scattered back through its filter taps.
func (c *Conv1D) BackwardBatch(dy *mat.Matrix) *mat.Matrix {
	return c.backwardBatch(dy, true)
}

// backwardBatch is BackwardBatch with the second pass optional.
func (c *Conv1D) backwardBatch(dy *mat.Matrix, inputGrad bool) *mat.Matrix {
	if c.bx == nil {
		panic("nn: Conv1D BackwardBatch before ForwardBatch")
	}
	if dy.Rows != c.bx.Rows || dy.Cols != c.by.Cols {
		panic(fmt.Sprintf("nn: Conv1D BackwardBatch %dx%d, want %dx%d", dy.Rows, dy.Cols, c.bx.Rows, c.by.Cols))
	}
	c.filterGrads(dy)
	if !inputGrad {
		return nil
	}
	c.bdx = mat.EnsureShape(c.bdx, dy.Rows, c.bx.Cols)
	c.inputGrads(dy)
	return c.bdx
}

// rectMask returns the batch whose leading columns gate dy's — the rectified
// responses the forward pass left in c.by — and mat.Gate's pass bits; after a
// pass that did not rectify, dy gates itself with the gate open, i.e. not at
// all.
func (c *Conv1D) rectMask(dy *mat.Matrix) (*mat.Matrix, uint64) {
	if c.rectified {
		return c.by, 0
	}
	return dy, ^uint64(0)
}

// filterGrads accumulates every filter's weight and bias gradients;
// distinct filters touch disjoint gradient elements. Rows are the outer loop
// and the filters the inner one, so the three batches it
// reads — gradient, mask and input, megabytes each at the paper's width — are
// walked once, front to back, instead of once per filter in stripes of one
// filter's responses; a filter's accumulators still see their terms in
// (row, position) ascending order. At the paper's shape — a kernel of four
// at stride one — mat.Conv4GradTo takes the filters four to a vector
// where the CPU allows, the same terms in the same order without the skip's
// branch (DESIGN §10); filterGradRow takes the rest.
//
//minicost:hotpath
func (c *Conv1D) filterGrads(dy *mat.Matrix) {
	ol, kernel := c.outLen(), c.Kernel
	rect, pass := c.rectMask(dy)
	paper := kernel == 4 && c.Stride == 1
	for r := 0; r < dy.Rows; r++ {
		drow, yrow, xrow := dy.Row(r), rect.Row(r), c.bx.Row(r)
		f := 0
		if paper {
			f = mat.Conv4GradTo(c.w.Grad, c.b.Grad, drow[:c.Filters*ol], yrow[:c.Filters*ol], xrow[:c.InLen], pass)
		}
		for ; f < c.Filters; f++ {
			c.b.Grad[f] = filterGradRow(c.w.Grad[f*kernel:(f+1)*kernel], c.b.Grad[f],
				drow[f*ol:(f+1)*ol], yrow[f*ol:(f+1)*ol], xrow, c.Stride, pass)
		}
	}
}

// filterGradRow is filterGrads' inner loop, one sample's terms of one
// filter's gradients: gw accumulates in place and the bias gradient, bg on
// entry, is returned. Like convFilterRow it is a function of its own, with
// the paper's kernel of four written out so that the four accumulators live
// in registers across the positions (3.4 against 3.9 ms for a 112-row batch
// at 128 filters); the operations and their order are the general loop's.
//
//minicost:hotpath
func filterGradRow(gw []float64, bg float64, drow, yrow, xrow []float64, stride int, pass uint64) float64 {
	off := 0
	if len(gw) == 4 {
		g0, g1, g2, g3 := gw[0], gw[1], gw[2], gw[3]
		for t, g := range drow {
			g = mat.Gate(g, yrow[t], pass)
			if g != 0 {
				win := xrow[off : off+4 : off+4]
				bg += g
				g0 = math.FMA(g, win[0], g0)
				g1 = math.FMA(g, win[1], g1)
				g2 = math.FMA(g, win[2], g2)
				g3 = math.FMA(g, win[3], g3)
			}
			off += stride
		}
		gw[0], gw[1], gw[2], gw[3] = g0, g1, g2, g3
		return bg
	}
	for t, g := range drow {
		g = mat.Gate(g, yrow[t], pass)
		if g != 0 {
			win := xrow[off:][:len(gw)]
			bg += g
			for k := range gw {
				gw[k] = math.FMA(g, win[k], gw[k])
			}
		}
		off += stride
	}
	return bg
}

// inputGrads zeroes and accumulates every row's window gradients with the
// oracle's f-outer/t-inner walk, then copies the tail's gradient behind
// them.
//
//minicost:hotpath
func (c *Conv1D) inputGrads(dy *mat.Matrix) {
	ol := c.outLen()
	rect, pass := c.rectMask(dy)
	for r := 0; r < dy.Rows; r++ {
		drow, yrow, dxrow := dy.Row(r), rect.Row(r), c.bdx.Row(r)
		for i := range dxrow[:c.InLen] {
			dxrow[i] = 0
		}
		for f := 0; f < c.Filters; f++ {
			w := c.w.Value[f*c.Kernel : (f+1)*c.Kernel]
			for t := 0; t < ol; t++ {
				g := mat.Gate(drow[f*ol+t], yrow[f*ol+t], pass)
				if g == 0 {
					continue
				}
				win := dxrow[t*c.Stride : t*c.Stride+c.Kernel]
				for k, wk := range w {
					win[k] = math.FMA(g, wk, win[k])
				}
			}
		}
		copy(dxrow[c.InLen:], drow[c.Filters*ol:])
	}
}

// BackwardBatch implements the batched gradient pass for ReLU: the retained
// input batch is the mask (dy passes where the input was positive).
func (r *ReLU) BackwardBatch(dy *mat.Matrix) *mat.Matrix {
	return r.backwardBatch(dy, true)
}

// backwardBatch masks the output gradient through the retained input
// (mat.ReluGradTo: a compare mask per vector, mat.Gate's bits).
func (r *ReLU) backwardBatch(dy *mat.Matrix, inputGrad bool) *mat.Matrix {
	if !inputGrad {
		return nil // no parameters: the input gradient is all there is
	}
	if r.bx == nil {
		panic("nn: ReLU BackwardBatch before ForwardBatch")
	}
	if dy.Rows != r.bx.Rows || dy.Cols != r.bx.Cols {
		panic(fmt.Sprintf("nn: ReLU BackwardBatch %dx%d, want %dx%d", dy.Rows, dy.Cols, r.bx.Rows, r.bx.Cols))
	}
	r.bdx = mat.EnsureShape(r.bdx, dy.Rows, dy.Cols)
	n := len(dy.Data)
	mat.ReluGradTo(r.bdx.Data[:n], dy.Data, r.bx.Data[:n])
	return r.bdx
}

// BackwardBatch implements the batched gradient pass for Split: the
// front-end's, which reads the response gradients where they lie in dy and
// writes window and tail gradients side by side.
func (s *Split) BackwardBatch(dy *mat.Matrix) *mat.Matrix {
	return s.backwardBatch(dy, true)
}

func (s *Split) backwardBatch(dy *mat.Matrix, inputGrad bool) *mat.Matrix {
	return s.conv.backwardBatch(dy, inputGrad)
}

// BackwardBatch back-propagates a batch of output gradients through the
// stack (after a ForwardBatch), accumulating parameter gradients and
// returning the batched input gradient. The result is owned by the first
// layer and overwritten by the next call. workers must be 0 or 1 (see
// checkSerial).
func (n *Network) BackwardBatch(dy *mat.Matrix, workers int) *mat.Matrix {
	checkSerial("BackwardBatch", workers)
	return n.backward(dy, true)
}

// BackwardParams is BackwardBatch for a caller that wants the parameter
// gradients alone, which is every training update: the first layer's input
// gradient — the gradient with respect to the features, a scatter through
// every filter tap for the conv front-end and a GEMM as large as the forward
// one for a Dense — is not computed. The parameter gradients are
// BackwardBatch's bit for bit; they never depended on it.
func (n *Network) BackwardParams(dy *mat.Matrix) {
	n.backward(dy, false)
}

func (n *Network) backward(dy *mat.Matrix, inputGrad bool) *mat.Matrix {
	for i := len(n.layers) - 1; i >= 0; i-- {
		dy = n.layers[i].backwardBatch(dy, inputGrad || i > 0)
	}
	return dy
}
