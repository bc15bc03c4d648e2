// Package nn is the from-scratch neural-network substrate behind MiniCost's
// A3C agent (§6.1 of the paper: a Conv1D front-end of 128 filters, size 4,
// stride 1, feeding a 128-neuron hidden layer; here parameterizable so
// Fig. 11's width sweep can run).
//
// The design is deliberately minimal: single-sample forward/backward (A3C
// applies n-step updates sample by sample), float64 everywhere, layers
// exposing flat parameter/gradient vectors so the RL package can host a
// locked global parameter server and copy weights into per-worker replicas.
package nn

import (
	"fmt"
	"math"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// Param is one layer's parameter block with its gradient accumulator.
type Param struct {
	Value []float64
	Grad  []float64
}

// Layer is a differentiable module. Forward must cache whatever Backward
// needs; Backward consumes the gradient w.r.t. its output, accumulates
// parameter gradients, and returns the gradient w.r.t. its input.
//
// Buffer ownership: the slices Forward and Backward return — and the
// matrices ForwardBatch and BackwardBatch return — are owned by the layer
// and overwritten by its next call of the same method; copy them if they
// must outlive that. This keeps the single-sample training loop, steady-
// state batched inference and the batched training path allocation-free,
// which the A3C workers and the serving path depend on.
//
// ForwardBatch (batch.go) must produce outputs bitwise identical to
// row-by-row Forward calls. It retains the input batch (a pointer, not a
// copy — the caller's own matrix, for a network's first layer, which must
// not change in between) so BackwardBatch (backward.go) can differentiate
// it; BackwardBatch must follow the ForwardBatch whose activations it
// consumes and must accumulate parameter gradients bitwise identically to
// calling Forward and Backward once per row, in row order.
//
// What a layer owns, and how long a kernel-layout pack of a Dense weight
// block may live, depends on how its parameters came to be — three cases:
//
//   - It owns them (a constructed or cloned layer): values, gradients and
//     scratch are its own, and the values may change between any two calls
//     without the layer being told (an optimizer step through Params), so a
//     pack serves the one ForwardBatch that built it — pack per call.
//   - They are bound (Network.BindParamVector, Network.BoundClone): the
//     values belong to the caller, who keeps them immutable until the next
//     BindParamVector or SetParamVector call; gradients and scratch are the
//     layer's. The first forward window of at least packMinRows rows after
//     such a call packs, and every later one multiplies against that pack —
//     pack per bind. It is the call that invalidates, never the address: a
//     parameter server recycles its buffers.
//   - It is frozen (Network.Freeze): it owns only scratch; values and packs
//     are shared, read-only, with every other view of the same freeze, and it
//     has no gradients — pack per freeze.
type Layer interface {
	Forward(x []float64) []float64
	ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix
	Backward(dy []float64) []float64
	BackwardBatch(dy *mat.Matrix, workers int) *mat.Matrix
	Params() []*Param
	OutDim(inDim int) int
	// forwardRows is ForwardBatch for the row window [lo, hi) of x: it writes
	// those rows of the layer's output batch — sized for all of x, the other
	// rows left as they are — and retains x (see Network.ForwardRows).
	forwardRows(x *mat.Matrix, lo, hi, workers int) *mat.Matrix
	// backwardBatch is BackwardBatch, except that with inputGrad unset it
	// accumulates the parameter gradients only and returns nil (see
	// Network.BackwardParams).
	backwardBatch(dy *mat.Matrix, workers int, inputGrad bool) *mat.Matrix
	// shell returns a layer of the same architecture with no parameter
	// storage at all; Network.Clone and Network.BoundClone fill it in.
	shell() Layer
	freeze() Layer
}

// Dense is a fully connected layer y = W·x + b.
type Dense struct {
	In, Out int
	w, b    Param
	x       []float64 // cached input
	y, dx   []float64 // reused output/input-gradient buffers

	by         *mat.Matrix       // reused batched output
	bxt        *mat.Matrix       // reused lane-transposed scratch for short windows
	xWin, yWin mat.Matrix        // reused views of a short window's input and output rows
	wView      *mat.Matrix       // lazily built view of w.Value as an Out×In matrix
	wpack      *mat.PackedTransB // kernel-layout copy of the weights (see Layer for how long it lives)
	frozen     bool              // w, b and wpack are shared and read-only (see freeze)
	bound      bool              // w and b are the caller's, immutable until the network is told otherwise
	packed     bool              // wpack holds the current weights and may serve the next forward window
	packs      int               // forward windows that had to pack first (Network.WeightPacks)

	bx       *mat.Matrix       // input batch retained by ForwardBatch for BackwardBatch
	dyT, bdx *mat.Matrix       // reused gradient-pass scratch/output buffers
	gView    *mat.Matrix       // lazily built view of w.Grad as an Out×In matrix
	wtpack   *mat.PackedTransB // reused transposed-weight pack for the dX GEMM
	xpack    *mat.PackedTransB // reused input-batch pack for the dW GEMM
}

// NewDense constructs a Dense layer with Xavier/Glorot uniform init.
func NewDense(r *rng.RNG, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense %dx%d", in, out))
	}
	d := &Dense{In: in, Out: out}
	d.w = Param{Value: make([]float64, out*in), Grad: make([]float64, out*in)}
	d.b = Param{Value: make([]float64, out), Grad: make([]float64, out)}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.w.Value {
		d.w.Value[i] = (2*r.Float64() - 1) * limit
	}
	return d
}

// Forward computes W·x + b.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense input %d, want %d", len(x), d.In))
	}
	d.x = x
	if d.y == nil {
		d.y = make([]float64, d.Out)
	}
	y := d.y
	for o := 0; o < d.Out; o++ {
		row := d.w.Value[o*d.In : (o+1)*d.In]
		s := d.b.Value[o]
		for i, v := range x {
			s += row[i] * v
		}
		y[o] = s
	}
	return y
}

// Backward accumulates dW = dy·xᵀ, db = dy and returns Wᵀ·dy.
func (d *Dense) Backward(dy []float64) []float64 {
	if len(dy) != d.Out {
		panic("nn: Dense Backward dim mismatch")
	}
	if d.dx == nil {
		d.dx = make([]float64, d.In)
	}
	dx := d.dx
	for i := range dx {
		dx[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		g := dy[o]
		d.b.Grad[o] += g
		row := d.w.Value[o*d.In : (o+1)*d.In]
		grow := d.w.Grad[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += g * d.x[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// Params returns the weight and bias blocks.
func (d *Dense) Params() []*Param { return []*Param{&d.w, &d.b} }

// OutDim implements Layer.
func (d *Dense) OutDim(int) int { return d.Out }

func (d *Dense) shell() Layer { return &Dense{In: d.In, Out: d.Out} }

// freeze returns a view of d that shares its parameter values and carries
// the kernel-layout pack of its weights: built here, once, from a layer
// whose weights may change, handed on as it is from one that is frozen.
func (d *Dense) freeze() Layer {
	c := &Dense{In: d.In, Out: d.Out, frozen: true, packed: true}
	c.w.Value, c.b.Value = d.w.Value, d.b.Value
	if d.frozen {
		c.wpack = d.wpack
	} else {
		c.wpack = mat.PackTransBTo(nil, &mat.Matrix{Rows: d.Out, Cols: d.In, Data: d.w.Value})
	}
	return c
}

// Conv1D is a one-dimensional convolution over a single input channel with
// Filters output channels, kernel size Kernel and stride Stride. The output
// is flattened channel-major: out[f*outLen+t].
type Conv1D struct {
	InLen, Filters, Kernel, Stride int
	w, b                           Param // w[f*Kernel+k], b[f]
	x                              []float64
	y, dx                          []float64 // reused buffers

	by, bdx *mat.Matrix // reused batched output / input-gradient buffers
	// Retained by the last batched forward pass for the gradient pass: the
	// input batch, whose rows start with the windows, and whether the pass
	// rectified, in which case by is the ReLU mask as well.
	bx        *mat.Matrix
	rectified bool
}

// NewConv1D constructs the layer; the paper's setting is Filters=128,
// Kernel=4, Stride=1.
func NewConv1D(r *rng.RNG, inLen, filters, kernel, stride int) *Conv1D {
	if inLen <= 0 || filters <= 0 || kernel <= 0 || stride <= 0 || kernel > inLen {
		panic(fmt.Sprintf("nn: invalid Conv1D inLen=%d filters=%d kernel=%d stride=%d", inLen, filters, kernel, stride))
	}
	c := &Conv1D{InLen: inLen, Filters: filters, Kernel: kernel, Stride: stride}
	c.w = Param{Value: make([]float64, filters*kernel), Grad: make([]float64, filters*kernel)}
	c.b = Param{Value: make([]float64, filters), Grad: make([]float64, filters)}
	limit := math.Sqrt(6.0 / float64(kernel+filters))
	for i := range c.w.Value {
		c.w.Value[i] = (2*r.Float64() - 1) * limit
	}
	return c
}

// outLen returns the number of output positions per filter.
func (c *Conv1D) outLen() int { return (c.InLen-c.Kernel)/c.Stride + 1 }

// Forward computes the cross-correlation of x with every filter.
func (c *Conv1D) Forward(x []float64) []float64 {
	if len(x) != c.InLen {
		panic(fmt.Sprintf("nn: Conv1D input %d, want %d", len(x), c.InLen))
	}
	c.x = x
	ol := c.outLen()
	if c.y == nil {
		c.y = make([]float64, c.Filters*ol)
	}
	y := c.y
	for f := 0; f < c.Filters; f++ {
		w := c.w.Value[f*c.Kernel : (f+1)*c.Kernel]
		bias := c.b.Value[f]
		for t := 0; t < ol; t++ {
			s := bias
			base := t * c.Stride
			for k := 0; k < c.Kernel; k++ {
				s += w[k] * x[base+k]
			}
			y[f*ol+t] = s
		}
	}
	return y
}

// Backward accumulates filter gradients and returns the input gradient.
func (c *Conv1D) Backward(dy []float64) []float64 {
	ol := c.outLen()
	if len(dy) != c.Filters*ol {
		panic("nn: Conv1D Backward dim mismatch")
	}
	if c.dx == nil {
		c.dx = make([]float64, c.InLen)
	}
	dx := c.dx
	for i := range dx {
		dx[i] = 0
	}
	for f := 0; f < c.Filters; f++ {
		w := c.w.Value[f*c.Kernel : (f+1)*c.Kernel]
		gw := c.w.Grad[f*c.Kernel : (f+1)*c.Kernel]
		for t := 0; t < ol; t++ {
			g := dy[f*ol+t]
			if g == 0 {
				continue
			}
			c.b.Grad[f] += g
			base := t * c.Stride
			for k := 0; k < c.Kernel; k++ {
				gw[k] += g * c.x[base+k]
				dx[base+k] += g * w[k]
			}
		}
	}
	return dx
}

// Params returns the filter and bias blocks.
func (c *Conv1D) Params() []*Param { return []*Param{&c.w, &c.b} }

// OutDim implements Layer.
func (c *Conv1D) OutDim(int) int { return c.Filters * c.outLen() }

func (c *Conv1D) shell() Layer {
	return &Conv1D{InLen: c.InLen, Filters: c.Filters, Kernel: c.Kernel, Stride: c.Stride}
}

func (c *Conv1D) freeze() Layer {
	cc := c.shell().(*Conv1D)
	cc.w.Value, cc.b.Value = c.w.Value, c.b.Value
	return cc
}

// ReLU is max(0, x).
type ReLU struct {
	mask  []bool
	y, dx []float64   // reused buffers
	by    *mat.Matrix // reused batched output
	bx    *mat.Matrix // input batch retained by ForwardBatch for BackwardBatch
	bdx   *mat.Matrix // reused batched input-gradient buffer
}

// NewReLU returns a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x []float64) []float64 {
	if len(r.y) != len(x) {
		r.y = make([]float64, len(x))
		r.mask = make([]bool, len(x))
	}
	y := r.y
	for i, v := range x {
		if v > 0 {
			y[i] = v
			r.mask[i] = true
		} else {
			y[i] = 0
			r.mask[i] = false
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy []float64) []float64 {
	if len(r.dx) != len(dy) {
		r.dx = make([]float64, len(dy))
	}
	dx := r.dx
	for i, g := range dy {
		if r.mask[i] {
			dx[i] = g
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// Params implements Layer (none).
func (r *ReLU) Params() []*Param { return nil }

// OutDim implements Layer.
func (r *ReLU) OutDim(in int) int { return in }

func (r *ReLU) shell() Layer { return &ReLU{} }

func (r *ReLU) freeze() Layer { return &ReLU{} }

// Split applies Inner — a Conv1D followed by a ReLU — to the first Head
// inputs and passes the remaining inputs through unchanged, concatenating
// the results. MiniCost uses it to run the conv front-end over the
// request-frequency history while static features (size, tier one-hot,
// write stats) bypass it — the paper's "results from these layers are then
// aggregated with other inputs". The single-sample passes run Inner layer by
// layer; the batched passes run the whole front-end as one loop over the
// rows (Conv1D.forward).
type Split struct {
	Head  int
	Inner *Network
	conv  *Conv1D   // Inner's first layer; it owns the batched passes' buffers
	y, dx []float64 // reused buffers
}

// NewSplit wraps inner, which must be a Conv1D over head inputs followed by
// a ReLU, over the first head inputs.
func NewSplit(head int, inner *Network) *Split {
	if len(inner.layers) != 2 {
		panic("nn: Split inner network must be Conv1D, ReLU")
	}
	conv, isConv := inner.layers[0].(*Conv1D)
	if _, isReLU := inner.layers[1].(*ReLU); !isConv || !isReLU {
		panic("nn: Split inner network must be Conv1D, ReLU")
	}
	if head != conv.InLen {
		panic(fmt.Sprintf("nn: Split head %d, inner Conv1D reads %d", head, conv.InLen))
	}
	return &Split{Head: head, Inner: inner, conv: conv}
}

// Forward implements Layer.
func (s *Split) Forward(x []float64) []float64 {
	if len(x) < s.Head {
		panic("nn: Split input shorter than head")
	}
	y := s.Inner.Forward(x[:s.Head])
	if len(s.y) != len(y)+len(x)-s.Head {
		s.y = make([]float64, len(y)+len(x)-s.Head)
	}
	copy(s.y, y)
	copy(s.y[len(y):], x[s.Head:])
	return s.y
}

// Backward implements Layer.
func (s *Split) Backward(dy []float64) []float64 {
	innerOut := s.Inner.OutDim(s.Head)
	dHead := s.Inner.Backward(dy[:innerOut])
	if len(s.dx) != s.Head+len(dy)-innerOut {
		s.dx = make([]float64, s.Head+len(dy)-innerOut)
	}
	copy(s.dx, dHead)
	copy(s.dx[s.Head:], dy[innerOut:])
	return s.dx
}

// Params implements Layer.
func (s *Split) Params() []*Param { return s.Inner.Params() }

// OutDim implements Layer.
func (s *Split) OutDim(in int) int { return s.Inner.OutDim(s.Head) + in - s.Head }

func (s *Split) shell() Layer { return NewSplit(s.Head, s.Inner.shell()) }

func (s *Split) freeze() Layer { return NewSplit(s.Head, s.Inner.Freeze()) }

func cloneParam(p Param) Param {
	return Param{
		Value: append([]float64(nil), p.Value...),
		Grad:  append([]float64(nil), p.Grad...),
	}
}
