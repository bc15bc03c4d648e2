package rl

import (
	"testing"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/rng"
)

// BenchmarkBackwardParams attributes the parameter-only backward pass a
// training update runs (nn.Network.BackwardParams) at the paper's 14/128/128
// actor to its parts, one thread, in µs per call, on the 112-row arena of a
// lockstep width of 16 and 7 steps per rollout:
//
//	xpack     the hidden layer's input batch (112×3206) packed transposed,
//	          the weight gradient's right operand
//	wtpack    the hidden weights (128×3206) packed transposed, the input
//	          gradient's right operand
//	dW        the hidden weight gradient dW += dYᵀ·X on the packed kernel
//	dX        the hidden input gradient dX = dY·W on the packed kernel
//	convgrad  the conv front-end's filter and bias gradients
//	total     the whole actor's BackwardParams
//
// total should read close to the sum of the other five: what is left is
// the output layer, the bias sums, the rectifier's mask and the dY
// transpose.
func BenchmarkBackwardParams(b *testing.B) {
	const rows = 112
	cfg := DefaultNetConfig()
	fd := mdp.FeatureDim(cfg.HistLen)
	head := mdp.HistoryFeatureDim(cfg.HistLen)
	k := cfg.Filters*((head-cfg.Kernel)/cfg.Stride+1) + fd - head
	perCall := func(b *testing.B, fn func()) {
		fn() // warm the scratch buffers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/call")
	}
	x := benchMatrix(rows, k, 2)
	w := benchMatrix(cfg.Hidden, k, 3)
	dy := benchMatrix(rows, cfg.Hidden, 4)
	dyT := mat.TransposeParTo(nil, dy, 1)
	xpack := mat.PackTransposeTo(nil, x)
	wtpack := mat.PackTransposeTo(nil, w)

	b.Run("paper128/m112/xpack", func(b *testing.B) {
		var p *mat.PackedTransB
		perCall(b, func() { p = mat.PackTransposeParTo(p, x, 1) })
	})
	b.Run("paper128/m112/wtpack", func(b *testing.B) {
		var p *mat.PackedTransB
		perCall(b, func() { p = mat.PackTransposeParTo(p, w, 1) })
	})
	b.Run("paper128/m112/dW", func(b *testing.B) {
		g := mat.New(cfg.Hidden, k)
		perCall(b, func() { mat.MulPackAccTo(g, dyT, xpack, 1) })
	})
	b.Run("paper128/m112/dX", func(b *testing.B) {
		var dst *mat.Matrix
		perCall(b, func() { dst = mat.MulPackTransBBiasTo(dst, dy, wtpack, nil, 1) })
	})
	b.Run("paper128/m112/convgrad", func(b *testing.B) {
		conv := nn.NewConv1D(rng.New(1), head, cfg.Filters, cfg.Kernel, cfg.Stride)
		front := nn.NewNetwork(nn.NewSplit(head, nn.NewNetwork(conv, nn.NewReLU())))
		front.ForwardBatch(benchMatrix(rows, fd, 5), 1)
		g := benchMatrix(rows, k, 6)
		perCall(b, func() { front.BackwardParams(g, 1) })
	})
	b.Run("paper128/m112/total", func(b *testing.B) {
		actor := cfg.BuildActor(rng.New(7))
		actor.ForwardBatch(benchMatrix(rows, fd, 5), 1)
		g := benchMatrix(rows, mdp.NumActions, 8)
		perCall(b, func() { actor.BackwardParams(g, 1) })
	})
}
