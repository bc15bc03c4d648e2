package rl

import (
	"testing"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/rng"
)

// BenchmarkBackwardParams attributes the parameter-only backward pass a
// training update runs (nn.Network.BackwardParams) to its parts, one thread,
// in µs per call. paper128/m112 is the paper's 14/128/128 actor on the
// 112-row arena of a lockstep width of 16 and 7 steps per rollout; boot64 is
// minicostd -online's 14/32/64 actor (806 hidden inputs) on the 56-row arena
// of its fine-tune width of 8, and on 112 rows. Per shape:
//
//	wpack       the hidden weights (Hidden×In) packed for the forward GEMM,
//	            once per bind; not part of total
//	xpack       the hidden layer's input batch (rows×In) packed transposed,
//	            the packed weight gradient's right operand
//	wtpack      the hidden weights packed transposed, the packed input
//	            gradient's right operand
//	dW          the hidden weight gradient dW += dYᵀ·X, dY transposed
//	            against xpack (mat.MulPackAccTo); the wide route's
//	dX          the hidden input gradient dX = dY·W against wtpack
//	inplace-dW  dW with X read where it lies, no pack (mat.AddMulTransATo)
//	inplace-dX  dX with W read where it lies (mat.MulTo)
//	convgrad    the conv front-end's filter and bias gradients
//	total       the whole actor's BackwardParams
//
// Those rows run each call on operands the previous call left in cache. At
// paper128/m112 and boot64/m56 the cold-* rows time the two routes' products
// with L2 evicted before every call (outside the timer), as a training round
// meets them after its rollout:
//
//	cold-packed-dW   xpack then dW
//	cold-inplace-dW  inplace-dW
//	cold-packed-dX   wtpack then dX
//	cold-inplace-dX  inplace-dX
//	cold-total       total
//
// Where the backward packs (mat.InPlaceCols says no) total should read close
// to xpack + wtpack + dW + dX + convgrad, what is left being the output
// layer, the bias sums and the rectifier's mask; the inplace rows are what
// the other route pays instead of the packs and the packed products, and
// the other way round where it reads in place.
func BenchmarkBackwardParams(b *testing.B) {
	perCall := func(b *testing.B, fn func()) {
		fn() // warm the scratch buffers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/call")
	}
	// Reading a buffer twice the 2 MiB L2 of the development box's cores
	// leaves none of the last call's operands in L1 or L2. It is written
	// first: untouched pages would all read the kernel's one zero page.
	evict := make([]float64, 4<<20/8)
	for i := range evict {
		evict[i] = float64(i)
	}
	coldPerCall := func(b *testing.B, fn func()) {
		fn()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sum := 0.0
			for _, v := range evict {
				sum += v
			}
			evictSink += sum
			b.StartTimer()
			fn()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/call")
	}
	for _, sc := range []struct {
		name string
		cfg  NetConfig
		rows int
		cold bool
	}{
		{"paper128/m112", DefaultNetConfig(), 112, true},
		{"boot64/m56", netBoot64, 56, true},
		{"boot64/m112", netBoot64, 112, false},
	} {
		cfg, rows := sc.cfg, sc.rows
		fd := mdp.FeatureDim(cfg.HistLen)
		head := mdp.HistoryFeatureDim(cfg.HistLen)
		k := cfg.Filters*((head-cfg.Kernel)/cfg.Stride+1) + fd - head
		x := benchMatrix(rows, k, 2)
		w := benchMatrix(cfg.Hidden, k, 3)
		dy := benchMatrix(rows, cfg.Hidden, 4)
		dyT := mat.TransposeTo(nil, dy)
		xpack := mat.PackTransposeTo(nil, x)
		wtpack := mat.PackTransposeTo(nil, w)
		run := func(part string, fn func(b *testing.B)) { b.Run(sc.name+"/"+part, fn) }

		run("wpack", func(b *testing.B) {
			var p *mat.PackedTransB
			perCall(b, func() { p = mat.PackTransBParTo(p, w, 1) })
		})
		run("xpack", func(b *testing.B) {
			var p *mat.PackedTransB
			perCall(b, func() { p = mat.PackTransposeParTo(p, x, 1) })
		})
		run("wtpack", func(b *testing.B) {
			var p *mat.PackedTransB
			perCall(b, func() { p = mat.PackTransposeParTo(p, w, 1) })
		})
		run("dW", func(b *testing.B) {
			g := mat.New(cfg.Hidden, k)
			perCall(b, func() { mat.MulPackAccTo(g, dyT, xpack, 1) })
		})
		run("dX", func(b *testing.B) {
			var dst *mat.Matrix
			perCall(b, func() { dst = mat.MulPackTransBBiasTo(dst, dy, wtpack, nil, 1) })
		})
		run("inplace-dW", func(b *testing.B) {
			g := mat.New(cfg.Hidden, k)
			perCall(b, func() { mat.AddMulTransATo(g, dy, x, 1) })
		})
		run("inplace-dX", func(b *testing.B) {
			var dst *mat.Matrix
			perCall(b, func() { dst = mat.MulTo(dst, dy, w, 1) })
		})
		run("convgrad", func(b *testing.B) {
			conv := nn.NewConv1D(rng.New(1), head, cfg.Filters, cfg.Kernel, cfg.Stride)
			front := nn.NewNetwork(nn.NewSplit(head, nn.NewNetwork(conv, nn.NewReLU())))
			front.ForwardBatch(benchMatrix(rows, fd, 5), 1)
			g := benchMatrix(rows, k, 6)
			perCall(b, func() { front.BackwardParams(g, 1) })
		})
		total := func(timed func(*testing.B, func())) func(*testing.B) {
			return func(b *testing.B) {
				actor := cfg.BuildActor(rng.New(7))
				actor.ForwardBatch(benchMatrix(rows, fd, 5), 1)
				g := benchMatrix(rows, mdp.NumActions, 8)
				timed(b, func() { actor.BackwardParams(g, 1) })
			}
		}
		run("total", total(perCall))
		if !sc.cold {
			continue
		}
		run("cold-packed-dW", func(b *testing.B) {
			var p *mat.PackedTransB
			g := mat.New(cfg.Hidden, k)
			coldPerCall(b, func() {
				p = mat.PackTransposeParTo(p, x, 1)
				mat.MulPackAccTo(g, dyT, p, 1)
			})
		})
		run("cold-inplace-dW", func(b *testing.B) {
			g := mat.New(cfg.Hidden, k)
			coldPerCall(b, func() { mat.AddMulTransATo(g, dy, x, 1) })
		})
		run("cold-packed-dX", func(b *testing.B) {
			var p *mat.PackedTransB
			var dst *mat.Matrix
			coldPerCall(b, func() {
				p = mat.PackTransposeParTo(p, w, 1)
				dst = mat.MulPackTransBBiasTo(dst, dy, p, nil, 1)
			})
		})
		run("cold-inplace-dX", func(b *testing.B) {
			var dst *mat.Matrix
			coldPerCall(b, func() { dst = mat.MulTo(dst, dy, w, 1) })
		})
		run("cold-total", total(coldPerCall))
	}
}

// evictSink keeps BenchmarkBackwardParams' eviction reads live.
var evictSink float64
