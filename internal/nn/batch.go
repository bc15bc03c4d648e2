package nn

import (
	"fmt"
	"math"

	"minicost/internal/mat"
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
// Every pass runs on the calling goroutine. Callers split cores across
// batches, never inside one: policy.RL and rl.PlanTrace across chunks of
// files, the agent server across shards, training across A3C workers.

// checkSerial panics unless workers is 0 or 1. Network.ForwardBatch and
// Network.BackwardBatch keep their workers argument only because the
// end-to-end benchmark's probes pass it; the argument goes when the
// benchmark next changes.
func checkSerial(fn string, workers int) {
	if workers != 0 && workers != 1 {
		panic(fmt.Sprintf("nn: %s workers %d: passes run serially, pass 0 or 1", fn, workers))
	}
}

// ForwardBatch implements the batched pass for Dense: Y = X·Wᵀ + b, one
// fused GEMM over the whole batch.
func (d *Dense) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	return d.forwardRows(x, 0, x.Rows)
}

// forwardRows computes rows [lo, hi) of Y = X·Wᵀ + b on the SIMD kernel's
// tile layout, whatever the window's length, against the pack the layer
// holds if that still stands for its weights (packed) and against one built
// here, first, if not — which is every time for a layer that owns its
// weights, once per bind for a bound one and never for a frozen one (see
// Layer).
func (d *Dense) forwardRows(x *mat.Matrix, lo, hi int) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense batch input %d, want %d", x.Cols, d.In))
	}
	d.bx = x
	if d.wView == nil {
		d.wView = &mat.Matrix{Rows: d.Out, Cols: d.In}
	}
	d.wView.Data = d.w.Value
	if !d.packed {
		d.wpack = mat.PackTransBTo(d.wpack, d.wView)
		d.packed = d.bound
		d.packs++
	}
	d.by = mat.MulPackTransBBiasRowsTo(d.by, x, d.wpack, d.b.Value, lo, hi)
	return d.by
}

// ForwardBatch implements the batched pass for a Conv1D on its own: the
// responses of every (sample, filter, position), channel-major, unrectified.
func (c *Conv1D) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	return c.forwardRows(x, 0, x.Rows)
}

func (c *Conv1D) forwardRows(x *mat.Matrix, lo, hi int) *mat.Matrix {
	if x.Cols != c.InLen {
		panic(fmt.Sprintf("nn: Conv1D batch input %d, want %d", x.Cols, c.InLen))
	}
	return c.forward(x, false, lo, hi)
}

// forward runs the batched convolution over the leading InLen columns of x's
// rows [lo, hi) — rectified or not — with whatever columns follow them passed
// through behind the responses (see convRows), and retains x for
// BackwardBatch.
func (c *Conv1D) forward(x *mat.Matrix, rectify bool, lo, hi int) *mat.Matrix {
	if lo < 0 || hi < lo || hi > x.Rows {
		panic(fmt.Sprintf("nn: Conv1D rows [%d,%d) of %d", lo, hi, x.Rows))
	}
	c.bx, c.rectified = x, rectify
	c.by = mat.EnsureShape(c.by, x.Rows, c.Filters*c.outLen()+x.Cols-c.InLen)
	c.convRows(x, rectify, lo, hi)
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
func (r *ReLU) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	return r.forwardRows(x, 0, x.Rows)
}

// forwardRows rectifies rows [lo, hi) (mat.ReluTo: one VMAXPD per vector,
// mat.Gate's bits).
func (r *ReLU) forwardRows(x *mat.Matrix, lo, hi int) *mat.Matrix {
	r.bx = x
	r.by = mat.EnsureShape(r.by, x.Rows, x.Cols)
	lo, hi = lo*x.Cols, hi*x.Cols
	mat.ReluTo(r.by.Data[lo:hi], x.Data[lo:hi])
	return r.by
}

// ForwardBatch implements the batched pass for Split: the conv front-end in
// one loop over the rows, reading the head columns where they lie in x and
// writing rectified responses and tail columns where the next layer reads
// them.
func (s *Split) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	return s.forwardRows(x, 0, x.Rows)
}

func (s *Split) forwardRows(x *mat.Matrix, lo, hi int) *mat.Matrix {
	if x.Cols < s.Head {
		panic("nn: Split batch input shorter than head")
	}
	return s.conv.forward(x, true, lo, hi)
}

// ForwardBatch runs the stack on a batch of samples (one per row). The
// result is owned by the network's last layer and overwritten by the next
// call. workers must be 0 or 1 (see checkSerial).
func (n *Network) ForwardBatch(x *mat.Matrix, workers int) *mat.Matrix {
	checkSerial("ForwardBatch", workers)
	return n.ForwardRows(x, 0, x.Rows)
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
func (n *Network) ForwardRows(x *mat.Matrix, lo, hi int) *mat.Matrix {
	for _, l := range n.layers {
		x = l.forwardRows(x, lo, hi)
	}
	return x
}
