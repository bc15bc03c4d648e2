package nn

import (
	"fmt"
	"math"

	"minicost/internal/mat"
)

// Network is a sequential stack of layers with flat parameter access.
type Network struct {
	layers []Layer
	// flatGrads, when non-nil, is the single contiguous vector backing every
	// layer's gradient accumulator (see FlattenGrads).
	flatGrads []float64
	// frozen marks a read-only inference view (see Freeze).
	frozen bool
}

// NewNetwork stacks the given layers.
func NewNetwork(layers ...Layer) *Network { return &Network{layers: layers} }

// Params returns every parameter block in the stack.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// OutDim returns the output dimension for an input of dimension in.
func (n *Network) OutDim(in int) int {
	for _, l := range n.layers {
		in = l.OutDim(in)
	}
	return in
}

// ZeroGrad clears every gradient accumulator.
func (n *Network) ZeroGrad() {
	if n.flatGrads != nil {
		for i := range n.flatGrads {
			n.flatGrads[i] = 0
		}
		return
	}
	for _, p := range n.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Value)
	}
	return total
}

// ParamVector copies all parameters into one flat vector.
func (n *Network) ParamVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.Value...)
	}
	return out
}

// SetParamVector loads parameters from a flat vector (layout must match
// ParamVector's).
func (n *Network) SetParamVector(v []float64) {
	n.mustOwnParams("SetParamVector")
	if len(v) != n.NumParams() {
		panic(fmt.Sprintf("nn: SetParamVector len %d, want %d", len(v), n.NumParams()))
	}
	off := 0
	for _, p := range n.Params() {
		copy(p.Value, v[off:off+len(p.Value)])
		off += len(p.Value)
	}
	n.weightsChanged(false)
}

// BindParamVector points every parameter block at a subslice of v (layout
// must match ParamVector's) instead of copying — an O(layers) pull. The
// caller keeps ownership of v and must keep it immutable and alive while the
// network can still read parameters; the network itself never writes
// parameter values (only gradients), so sharing one vector across readers is
// safe. rl's training workers bind straight to the trainer's global vectors
// at the start of every round, replacing a full-vector copy per update.
//
// The network holds the caller to that: a Dense packs its weights into kernel
// layout at the first forward window of packMinRows rows or more after this
// call and multiplies against the pack until the next BindParamVector or
// SetParamVector call, or a backward pass of packMinRows rows or more whose
// input is too wide to read in place, whose packs overwrite it. New values
// have to arrive through one of the two calls — binding the same slice
// again counts, rewriting it in place does not.
func (n *Network) BindParamVector(v []float64) {
	n.mustOwnParams("BindParamVector")
	if len(v) != n.NumParams() {
		panic(fmt.Sprintf("nn: BindParamVector len %d, want %d", len(v), n.NumParams()))
	}
	off := 0
	for _, p := range n.Params() {
		size := len(p.Value)
		p.Value = v[off : off+size : off+size]
		off += size
	}
	n.weightsChanged(true)
}

// weightsChanged tells every Dense that the pack it may hold is not of its
// current weights, and, after a bind, that the next one may be kept. Dense
// layers sit at the top level only: a Split's inner network is Conv1D, ReLU.
func (n *Network) weightsChanged(bound bool) {
	for _, l := range n.layers {
		if d, ok := l.(*Dense); ok {
			d.bound = d.bound || bound
			d.packed = false
		}
	}
}

// WeightPacks returns how many forward passes have had to pack the network's
// Dense weights into kernel layout first (a pass packs every block it needs,
// so this counts passes, not blocks): one per ForwardBatch of packMinRows
// rows or more on a network that owns its weights, one per bind on a bound
// one (and one more per forward that follows a backward whose packs
// overwrote it), none on a frozen view.
func (n *Network) WeightPacks() int {
	packs := 0
	for _, l := range n.layers {
		if d, ok := l.(*Dense); ok && d.packs > packs {
			packs = d.packs
		}
	}
	return packs
}

// FlattenGrads rebacks every gradient accumulator with one contiguous vector
// in ParamVector layout and returns it: after a backward pass the returned
// slice IS the flat gradient vector, so training loops can clip and apply
// without a GradVectorInto copy. Accumulated values are carried over on the
// first call; the vector is owned by the network and stays valid across
// backward passes and ZeroGrad.
func (n *Network) FlattenGrads() []float64 {
	n.mustOwnParams("FlattenGrads")
	if n.flatGrads == nil {
		flat := make([]float64, n.NumParams())
		off := 0
		for _, p := range n.Params() {
			size := len(p.Grad)
			copy(flat[off:], p.Grad)
			p.Grad = flat[off : off+size : off+size]
			off += size
		}
		n.flatGrads = flat
	}
	return n.flatGrads
}

// GradVector copies all accumulated gradients into one flat vector.
func (n *Network) GradVector() []float64 {
	return n.GradVectorInto(nil)
}

// GradVectorInto copies gradients into dst (reallocating if it is too
// small) and returns it; pass a reused buffer to avoid per-update
// allocation in training loops.
func (n *Network) GradVectorInto(dst []float64) []float64 {
	total := n.NumParams()
	if cap(dst) < total {
		dst = make([]float64, total)
	}
	dst = dst[:total]
	off := 0
	for _, p := range n.Params() {
		copy(dst[off:], p.Grad)
		off += len(p.Grad)
	}
	return dst
}

// Clone deep-copies the network (parameters and gradients; activation caches
// are not carried over). The clone of a frozen network is another view of
// the same freeze (see Freeze): there is nothing in it a copy could protect.
func (n *Network) Clone() *Network {
	if n.frozen {
		return n.Freeze()
	}
	out := n.shell()
	dst := out.Params()
	for i, p := range n.Params() {
		*dst[i] = cloneParam(*p)
	}
	return out
}

// BoundClone returns a training replica of n: a network of the same
// architecture bound to n's parameter values — shared, not copied, exactly as
// by BindParamVector, so n must keep them unchanged until the replica is
// bound elsewhere — with zeroed gradients of its own, backed by one flat
// vector from the start (FlattenGrads returns it). Nothing is copied, which
// is what a worker wants that binds to the global vectors before its first
// forward pass and would drop a Clone's values and gradients unread. Give the
// replica new parameters with BindParamVector: SetParamVector copies into the
// bound storage, which here is n's.
func (n *Network) BoundClone() *Network {
	n.mustOwnParams("BoundClone")
	out := n.shell()
	out.flatGrads = make([]float64, n.NumParams())
	dst := out.Params()
	off := 0
	for i, p := range n.Params() {
		size := len(p.Value)
		dst[i].Value = p.Value[:size:size]
		dst[i].Grad = out.flatGrads[off : off+size : off+size]
		off += size
	}
	out.weightsChanged(true)
	return out
}

// shell returns a network of n's architecture whose layers have no parameter
// storage yet.
func (n *Network) shell() *Network {
	out := &Network{layers: make([]Layer, len(n.layers))}
	for i, l := range n.layers {
		out.layers[i] = l.shell()
	}
	return out
}

// Freeze returns a read-only inference view of n: a network that shares n's
// parameter values instead of copying them, carries one kernel-layout pack of
// every Dense weight block — built here, once, so that ForwardBatch on the
// view never packs — and owns nothing but its activation scratch. It has no
// gradients: the forward passes work, the gradient passes and the calls that
// rewrite parameters (SetParamVector, BindParamVector, FlattenGrads) panic.
// Freezing or cloning a view yields another view over the same values and
// the same packs, which is how a pool equips many goroutines from one
// Freeze.
//
// Freeze only reads n. The caller must leave n's parameter values unmodified
// for as long as any view is in use: a view would compute from the new
// values in its unpacked kernels and from the old ones in its packs.
func (n *Network) Freeze() *Network {
	out := &Network{layers: make([]Layer, len(n.layers)), frozen: true}
	for i, l := range n.layers {
		out.layers[i] = l.freeze()
	}
	return out
}

// mustOwnParams panics when op, which rewrites parameters or gradients, is
// called on a frozen view, whose parameters belong to someone else.
func (n *Network) mustOwnParams(op string) {
	if n.frozen {
		panic("nn: " + op + " on a frozen network")
	}
}

// SoftmaxInto writes the softmax of logits into out (same length, may not
// alias) without allocating — the training and sampling hot paths reuse one
// buffer per worker.
//
//minicost:hotpath
func SoftmaxInto(out, logits []float64) {
	if len(out) != len(logits) {
		panic(fmt.Sprintf("nn: SoftmaxInto out len %d, want %d", len(out), len(logits)))
	}
	maxV := math.Inf(-1)
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - maxV)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// Entropy returns the Shannon entropy (nats) of a probability vector.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 0 {
			h -= float64(v * math.Log(v))
		}
	}
	return h
}

// ClipScale measures the flat gradient vector's L2 norm and returns it with
// the factor that clips the vector to maxNorm: maxNorm/norm where the norm
// exceeds it, 1 otherwise. Optimizer.Step applies the factor as it reads the
// gradient, so grads itself is left as it is. A non-positive maxNorm
// measures nothing and returns NaN and 1. The squared norm is accumulated in
// mat.SumSquares's eight fixed-order chains, so the norm (and hence any
// training trajectory crossing a clip) is a deterministic function of the
// gradient alone — every engine and platform sees the same bits.
func ClipScale(grads []float64, maxNorm float64) (norm, scale float64) {
	if maxNorm <= 0 {
		return math.NaN(), 1
	}
	norm = math.Sqrt(mat.SumSquares(grads))
	if norm > maxNorm {
		return norm, maxNorm / norm
	}
	return norm, 1
}
