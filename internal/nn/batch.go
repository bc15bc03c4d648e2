package nn

import (
	"fmt"
	"math"

	"minicost/internal/mat"
	"minicost/internal/par"
)

// Batched forward: ForwardBatch runs a whole batch of samples (one per
// matrix row) through a layer in one pass — one GEMM per Dense layer, one
// fused loop for the conv front-end. It is the one forward pass there is,
// and it serves every caller: the serving-side inference engine (policy.RL,
// the agent server), a one-off decision (a one-row batch, rl.Agent.Decide)
// and the training paths (rl's A3C workers and the replay DQN), which follow
// it with BackwardBatch (backward.go). The scalar per-sample loops live on
// only as the test oracle (oracle_test.go) the equivalence tests compare
// against.
//
// The front-end the agent networks are built with — Split over a Conv1D and
// a ReLU, concatenated with the static features — is one loop over the rows
// (Conv1D.convRows): it reads each sample's history window where it lies in
// the input batch and writes the rectified responses and the static tail
// where the hidden Dense reads them. There is no im2col buffer, no GEMM over
// a shared dimension of four, no transpose back to channel-major and no
// head/concat copy; the conv's share of a forward pass is its arithmetic.
//
// To support the gradient pass, each layer retains what BackwardBatch needs
// as pointers, not copies: Dense and ReLU the input batch, Conv1D the input
// batch (its rows start with the windows) and, when it rectified, the output
// batch (the ReLU mask). A retained input is the previous layer's output
// buffer, so BackwardBatch must run before that layer's next ForwardBatch;
// the first layer's is the caller's own batch, which must stay as it was
// until BackwardBatch has read it.
//
// Every batched forward is written for a window of rows (forwardRows);
// ForwardBatch is the window [0, Rows). Rows are independent — no kernel
// accumulates across them — so a batch may be run one window at a time
// (Network.ForwardRows): the vectorized trainer's rollouts forward each
// lockstep block where it lies in the update's arena, and when the last block
// is done the update's forward pass has already happened.
//
// Exactness: every kernel accumulates each output element in the same
// floating-point order as the scalar oracle (bias seed, then the shared
// dimension in index order, one fused multiply-add per term — see mat's GEMM
// contract), so each output row is
// bitwise identical to the oracle's output for that sample, whatever the
// batch length. Downstream argmax tier decisions therefore match exactly,
// not just approximately.
//
// Buffer ownership: the returned matrix is owned by the layer and
// overwritten by its next ForwardBatch call. Scratch buffers grow to the
// largest batch seen and are reused, so steady-state batched inference
// performs no allocations.
//
// workers bounds the intra-GEMM parallel fan-out: pass 1 (serial) when the
// caller already parallelizes across batches — e.g. the chunked stepper in
// policy.RL — and <= 0 for the default when a single large batch should use
// every core, e.g. the agent server planning all tracked files at once.

// parMinFloats is the per-call element traffic below which the batched
// layers' data-movement loops (elementwise activation, bias reduction, the
// conv front-end) stay serial even when workers > 1: under ~16k floats the
// goroutine fan-out costs more than the work it shards.
const parMinFloats = 1 << 14

// parRows reports whether n independent work items (sample rows, filters,
// output neurons) carrying floatsPerItem floats each are worth sharding over
// workers. Call sites branch on it and build the par.ForChunked closure only
// on the parallel side, so the serial (workers=1) hot path stays literally
// allocation-free — a func literal handed to ForChunked escapes to the heap
// even when the branch is never taken. Sharded items must write disjoint
// outputs, and each item's own accumulation order is untouched, so results
// are bitwise identical at any worker count.
func parRows(n, floatsPerItem, workers int) bool {
	return workers != 1 && n*floatsPerItem >= parMinFloats
}

// ForwardBatch implements the batched pass for Dense: Y = X·Wᵀ + b, one
// fused GEMM over the whole batch.
func (d *Dense) ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix {
	return d.forwardRows(x, 0, x.Rows, workers)
}

// forwardRows computes rows [lo, hi) of Y = X·Wᵀ + b on the SIMD kernel's
// tile layout, whatever the window's length, against the pack the layer
// holds if that still stands for its weights (packed) and against one built
// here, first, if not — which is every time for a layer that owns its
// weights, once per bind for a bound one and never for a frozen one (see
// Layer).
func (d *Dense) forwardRows(x *mat.Matrix, lo, hi, workers int) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense batch input %d, want %d", x.Cols, d.In))
	}
	d.bx = x
	if d.wView == nil {
		d.wView = &mat.Matrix{Rows: d.Out, Cols: d.In}
	}
	d.wView.Data = d.w.Value
	if !d.packed {
		d.wpack = mat.PackTransBParTo(d.wpack, d.wView, workers)
		d.packed = d.bound
		d.packs++
	}
	d.by = mat.MulPackTransBBiasRowsTo(d.by, x, d.wpack, d.b.Value, lo, hi, workers)
	return d.by
}

// ForwardBatch implements the batched pass for a Conv1D on its own: the
// responses of every (sample, filter, position), channel-major, unrectified.
func (c *Conv1D) ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix {
	return c.forwardRows(x, 0, x.Rows, workers)
}

func (c *Conv1D) forwardRows(x *mat.Matrix, lo, hi, workers int) *mat.Matrix {
	if x.Cols != c.InLen {
		panic(fmt.Sprintf("nn: Conv1D batch input %d, want %d", x.Cols, c.InLen))
	}
	return c.forward(x, false, lo, hi, workers)
}

// forward runs the batched convolution over the leading InLen columns of x's
// rows [lo, hi) — rectified or not — with whatever columns follow them passed
// through behind the responses (see convRows), and retains x for
// BackwardBatch.
func (c *Conv1D) forward(x *mat.Matrix, rectify bool, lo, hi, workers int) *mat.Matrix {
	if lo < 0 || hi < lo || hi > x.Rows {
		panic(fmt.Sprintf("nn: Conv1D rows [%d,%d) of %d", lo, hi, x.Rows))
	}
	c.bx, c.rectified = x, rectify
	c.by = mat.EnsureShape(c.by, x.Rows, c.Filters*c.outLen()+x.Cols-c.InLen)
	if parRows(hi-lo, c.by.Cols, workers) {
		par.ForChunked(hi-lo, workers, func(clo, chi int) { c.convRows(x, rectify, lo+clo, lo+chi) })
	} else {
		c.convRows(x, rectify, lo, hi)
	}
	return c.by
}

// convRows is the batched convolution, for sample rows [lo, hi): it
// cross-correlates the window at the start of x's row with every filter and
// writes the responses channel-major at the start of the output row — each
// bias-seeded and fused over the kernel in index order, the scalar oracle's
// bits — rectified in the same breath when rectify is set (mat.Gate:
// `v > 0 ? v : 0` without the branch), then copies what follows the window
// in x's row behind them. With rectify set and a
// tail that is Split∘Conv1D∘ReLU∘concat in one pass over the batch; without
// either it is a bare Conv1D. Rows write disjoint spans of the output. The
// paper's shape — a kernel of four at stride one, every network the harness
// builds — takes a row through mat.Conv4To, vectorized where the CPU allows;
// anything else runs convFilterRow, the same operations in the same order.
//
//minicost:hotpath
func (c *Conv1D) convRows(x *mat.Matrix, rectify bool, lo, hi int) {
	ol, kernel := c.outLen(), c.Kernel
	pass := ^uint64(0) // mat.Gate's: all ones lets every response through
	if rectify {
		pass = 0
	}
	for r := lo; r < hi; r++ {
		xrow, yrow := x.Row(r), c.by.Row(r)
		if kernel == 4 && c.Stride == 1 {
			mat.Conv4To(yrow[:c.Filters*ol], xrow[:c.InLen], c.w.Value, c.b.Value, pass)
		} else {
			for f, bias := range c.b.Value {
				convFilterRow(yrow[f*ol:(f+1)*ol], xrow, c.w.Value[f*kernel:(f+1)*kernel], bias, c.Stride, pass)
			}
		}
		copy(yrow[c.Filters*ol:], xrow[c.InLen:])
	}
}

// convFilterRow is convRows' inner loop at any shape but the paper's, one
// filter's responses to one sample; it is a function of its own so that the
// compiler keeps the loop's few values in registers.
//
//minicost:hotpath
func convFilterRow(out, xrow, w []float64, bias float64, stride int, pass uint64) {
	off := 0
	for t := range out {
		win := xrow[off:][:len(w)]
		s := bias
		for k, wk := range w {
			s = math.FMA(wk, win[k], s)
		}
		out[t] = mat.Gate(s, s, pass)
		off += stride
	}
}

// ForwardBatch implements the batched pass for ReLU (elementwise; the
// retained input batch doubles as the mask for BackwardBatch).
func (r *ReLU) ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix {
	return r.forwardRows(x, 0, x.Rows, workers)
}

func (r *ReLU) forwardRows(x *mat.Matrix, lo, hi, workers int) *mat.Matrix {
	r.bx = x
	r.by = mat.EnsureShape(r.by, x.Rows, x.Cols)
	lo, hi = lo*x.Cols, hi*x.Cols
	if parRows(hi-lo, 1, workers) {
		par.ForChunked(hi-lo, workers, func(clo, chi int) { r.forwardSpan(x, lo+clo, lo+chi) })
	} else {
		r.forwardSpan(x, lo, hi)
	}
	return r.by
}

// forwardSpan applies the rectifier to elements [lo, hi) (mat.ReluTo: one
// VMAXPD per vector, mat.Gate's bits).
//
//minicost:hotpath
func (r *ReLU) forwardSpan(x *mat.Matrix, lo, hi int) {
	mat.ReluTo(r.by.Data[lo:hi], x.Data[lo:hi])
}

// ForwardBatch implements the batched pass for Split: the conv front-end in
// one loop over the rows, reading the head columns where they lie in x and
// writing rectified responses and tail columns where the next layer reads
// them.
func (s *Split) ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix {
	return s.forwardRows(x, 0, x.Rows, workers)
}

func (s *Split) forwardRows(x *mat.Matrix, lo, hi, workers int) *mat.Matrix {
	if x.Cols < s.Head {
		panic("nn: Split batch input shorter than head")
	}
	return s.conv.forward(x, true, lo, hi, workers)
}

// ForwardBatch runs the stack on a batch of samples (one per row). The
// result is owned by the network's last layer and overwritten by the next
// call; see the file comment for the workers convention.
func (n *Network) ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix {
	return n.ForwardRows(x, 0, x.Rows, workers)
}

// ForwardRows runs the stack on the row window [lo, hi) of x and returns the
// network's output batch, which has a row for every row of x; the window's
// rows of it — and of every layer's activations — are written, the others
// left as they are. Rows do not interact, so once windows that cover
// [0, x.Rows) have each run once, in any order, with no other forward pass on
// the network and no SetParamVector or BindParamVector in between, the
// outputs and everything the layers retain are bit for bit what
// ForwardBatch(x) leaves, and BackwardBatch or BackwardParams may follow. x
// itself is retained, whole, as by ForwardBatch. rl's vectorized worker
// selects lockstep step t's actions from window [t·E, (t+1)·E) of its rollout
// arena, so that the last step's forward completes the update's.
func (n *Network) ForwardRows(x *mat.Matrix, lo, hi, workers int) *mat.Matrix {
	for _, l := range n.layers {
		x = l.forwardRows(x, lo, hi, workers)
	}
	return x
}
