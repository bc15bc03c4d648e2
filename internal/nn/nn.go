// Package nn is the from-scratch neural-network substrate behind MiniCost's
// A3C agent (§6.1 of the paper: a Conv1D front-end of 128 filters, size 4,
// stride 1, feeding a 128-neuron hidden layer; here parameterizable so
// Fig. 11's width sweep can run).
//
// The design is deliberately minimal: one batched forward and one batched
// backward per layer (one sample per matrix row — serving decides a batch of
// files, training differentiates a rollout or a replay minibatch; one-off
// decisions are a one-row batch), float64 everywhere, layers exposing flat
// parameter/gradient vectors so the RL package can keep the global network
// as flat vectors and bind per-worker replicas to them. The scalar
// per-sample loops survive only in the package's tests, as the oracle the
// batched kernels are held to bit for bit.
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

// Layer is a differentiable module over a batch of samples, one per matrix
// row. ForwardBatch (batch.go) retains the input batch (a pointer, not a
// copy — the caller's own matrix, for a network's first layer, which must not
// change in between) so that BackwardBatch (backward.go) can differentiate
// it; BackwardBatch consumes the gradient with respect to the outputs,
// accumulates parameter gradients, returns the gradient with respect to the
// inputs, and must follow the ForwardBatch whose activations it consumes.
//
// Buffer ownership: the matrices ForwardBatch and BackwardBatch return are
// owned by the layer and overwritten by its next call of the same method;
// copy them if they must outlive that. This keeps steady-state batched
// inference and training allocation-free, which the serving path and the
// training workers depend on.
//
// Exactness: each output row of ForwardBatch, and the parameter gradients
// BackwardBatch accumulates, are bitwise identical to the scalar loop run
// once per row, in row order — the per-sample oracle in the package's tests
// (oracle_test.go). See batch.go and backward.go for how each kernel keeps
// that order.
//
// What a layer owns, and how long a kernel-layout pack of a Dense weight
// block may live, depends on how its parameters came to be — three cases.
// Every Dense forward window, one row or many, runs against a pack:
//
//   - It owns them (a constructed or cloned layer): values, gradients and
//     scratch are its own, and the values may change between any two calls
//     without the layer being told (an optimizer step through Params), so a
//     pack serves the one forward window that built it — pack per call.
//   - They are bound (Network.BindParamVector, Network.BoundClone): the
//     values belong to the caller, who keeps them immutable until the next
//     BindParamVector or SetParamVector call; gradients and scratch are the
//     layer's. The first forward window after such a call packs, and every
//     later one multiplies against that pack — pack per bind — until a
//     backward pass whose input is too wide to read in place
//     (mat.InPlaceCols) packs into that pack's buffer. It is the call that
//     invalidates, never the address: a trainer rewrites one vector in
//     place between binds.
//   - It is frozen (Network.Freeze): it owns only scratch; values and packs
//     are shared, read-only, with every other view of the same freeze, and it
//     has no gradients — pack per freeze.
type Layer interface {
	ForwardBatch(x *mat.Matrix) *mat.Matrix
	BackwardBatch(dy *mat.Matrix) *mat.Matrix
	Params() []*Param
	OutDim(inDim int) int
	// forwardRows is ForwardBatch for the row window [lo, hi) of x: it writes
	// those rows of the layer's output batch — sized for all of x, the other
	// rows left as they are — and retains x (see Network.ForwardRows).
	forwardRows(x *mat.Matrix, lo, hi int) *mat.Matrix
	// backwardBatch is BackwardBatch, except that with inputGrad unset it
	// accumulates the parameter gradients only and returns nil (see
	// Network.BackwardParams).
	backwardBatch(dy *mat.Matrix, inputGrad bool) *mat.Matrix
	// shell returns a layer of the same architecture with no parameter
	// storage at all; Network.Clone and Network.BoundClone fill it in.
	shell() Layer
	freeze() Layer
}

// Dense is a fully connected layer y = W·x + b.
type Dense struct {
	In, Out int
	w, b    Param

	by     *mat.Matrix       // reused batched output
	wView  *mat.Matrix       // lazily built view of w.Value as an Out×In matrix
	wpack  *mat.PackedTransB // kernel-layout copy of the weights (see Layer for how long it lives); a wide backward's transposed packs use its buffer
	frozen bool              // w, b and wpack are shared and read-only (see freeze)
	bound  bool              // w and b are the caller's, immutable until the network is told otherwise
	packed bool              // wpack holds the current weights and may serve the next forward window
	packs  int               // forward windows that had to pack first (Network.WeightPacks)

	bx    *mat.Matrix // input batch retained by ForwardBatch for BackwardBatch
	bdx   *mat.Matrix // reused input-gradient output buffer
	dyT   *mat.Matrix // reused transpose of the output gradient, a wide backward's dW operand
	gView *mat.Matrix // lazily built view of w.Grad as an Out×In matrix
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
		d.w.Value[i] = (float64(2*r.Float64()) - 1) * limit
	}
	return d
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
		c.w.Value[i] = (float64(2*r.Float64()) - 1) * limit
	}
	return c
}

// outLen returns the number of output positions per filter.
func (c *Conv1D) outLen() int { return (c.InLen-c.Kernel)/c.Stride + 1 }

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
	by  *mat.Matrix // reused batched output
	bx  *mat.Matrix // input batch retained by ForwardBatch for BackwardBatch
	bdx *mat.Matrix // reused batched input-gradient buffer
}

// NewReLU returns a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

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
// aggregated with other inputs". Both passes run the whole front-end as one
// loop over the rows (Conv1D.forward, Conv1D.backwardBatch).
type Split struct {
	Head  int
	Inner *Network
	conv  *Conv1D // Inner's first layer; it owns the batched passes' buffers
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
