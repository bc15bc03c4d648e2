package nn

import (
	"fmt"
	"testing"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// refGrads runs the scalar oracle over the batch in row order and returns
// the resulting flat gradient vector plus the per-row input gradients.
func refGrads(net *Network, x, dy *mat.Matrix) ([]float64, *mat.Matrix) {
	dx := mat.New(dy.Rows, x.Cols)
	for r := 0; r < x.Rows; r++ {
		copy(dx.Row(r), net.refBackward(x.Row(r), dy.Row(r)))
	}
	return gradVector(net), dx
}

// gradVector copies n's gradient accumulators into one flat vector, in
// ParamVector's layout.
func gradVector(n *Network) []float64 {
	var flat []float64
	for _, p := range n.Params() {
		flat = append(flat, p.Grad...)
	}
	return flat
}

// setGrads overwrites n's gradient accumulators with flat (gradVector's
// layout).
func setGrads(n *Network, flat []float64) {
	off := 0
	for _, p := range n.Params() {
		off += copy(p.Grad, flat[off:off+len(p.Grad)])
	}
}

// assertBackwardBatchMatchesSingle checks that ForwardBatch + BackwardBatch
// accumulates bitwise-identical parameter gradients and input gradients to
// the scalar oracle, including on top of pre-existing gradients, and
// that BackwardParams — the same pass without the first layer's input
// gradient — accumulates the same parameter gradients.
func assertBackwardBatchMatchesSingle(t *testing.T, name string, build func() (*Network, *Network), x, dy *mat.Matrix, workers int) {
	t.Helper()
	batched, single := build()
	// Seed both gradient accumulators with a shared nonzero state so the
	// accumulate-in-place contract is exercised, not just the zero case.
	seed := rng.New(99)
	start := make([]float64, single.NumParams())
	for i := range start {
		start[i] = seed.NormalMS(0, 0.1)
	}
	setGrads(single, start)
	setGrads(batched, start)
	wantGrad, wantDx := refGrads(single, x, dy)

	batched.ForwardBatch(x, workers)
	gotDx := batched.BackwardBatch(dy, workers)
	gotGrad := gradVector(batched)

	if i, ok := sameBits(gotGrad, wantGrad); !ok {
		t.Fatalf("%s: grad elem %d = %v, oracle = %v (not bitwise equal)",
			name, i, gotGrad[i], wantGrad[i])
	}
	if i, ok := sameBits(gotDx.Data, wantDx.Data); !ok {
		t.Fatalf("%s: input-grad elem %d = %v, oracle = %v (not bitwise equal)",
			name, i, gotDx.Data[i], wantDx.Data[i])
	}

	// The forward pass's retained state outlives a backward pass, so the
	// second one needs no second forward.
	setGrads(batched, start)
	batched.BackwardParams(dy, workers)
	if i, ok := sameBits(gradVector(batched), wantGrad); !ok {
		t.Fatalf("%s: BackwardParams grad elem %d differs from the scalar oracle", name, i)
	}
}

// sparseGrad zeroes a fraction of dy's entries so Conv1D's zero-gradient
// skip path is exercised the way training exercises it (zero rewards ⇒ zero
// critic gradients for whole timesteps).
func sparseGrad(r *rng.RNG, rows, cols int) *mat.Matrix {
	dy := randomBatch(r, rows, cols)
	for i := range dy.Data {
		if r.Float64() < 0.3 {
			dy.Data[i] = 0
		}
	}
	return dy
}

func TestDenseBackwardBatchBitwise(t *testing.T) {
	r := rng.New(21)
	for _, sh := range []struct{ in, out, batch int }{{3, 2, 1}, {33, 17, 5}, {159, 128, 64}} {
		for _, workers := range []int{1, 0} {
			x := randomBatch(r, sh.batch, sh.in)
			dy := randomBatch(r, sh.batch, sh.out)
			assertBackwardBatchMatchesSingle(t, "Dense", func() (*Network, *Network) {
				seed := rng.New(31)
				return NewNetwork(NewDense(seed, sh.in, sh.out)), NewNetwork(NewDense(rng.New(31), sh.in, sh.out))
			}, x, dy, workers)
		}
	}
}

func TestConv1DBackwardBatchBitwise(t *testing.T) {
	r := rng.New(22)
	for _, sh := range []struct{ inLen, filters, kernel, stride, batch int }{
		{8, 3, 4, 1, 1}, {28, 128, 4, 1, 33}, {14, 16, 4, 2, 7}, {28, 64, 3, 2, 40},
	} {
		c := NewConv1D(rng.New(32), sh.inLen, sh.filters, sh.kernel, sh.stride)
		outDim := c.OutDim(sh.inLen)
		x := randomBatch(r, sh.batch, sh.inLen)
		dy := sparseGrad(r, sh.batch, outDim)
		// workers 4 shards the two wide shapes' filters; within a shard the
		// walk is rows outermost either way.
		for _, workers := range []int{1, 4} {
			assertBackwardBatchMatchesSingle(t, "Conv1D", func() (*Network, *Network) {
				return NewNetwork(NewConv1D(rng.New(32), sh.inLen, sh.filters, sh.kernel, sh.stride)),
					NewNetwork(NewConv1D(rng.New(32), sh.inLen, sh.filters, sh.kernel, sh.stride))
			}, x, dy, workers)
		}
	}
}

func TestReLUAndSplitBackwardBatchBitwise(t *testing.T) {
	r := rng.New(23)
	for _, batch := range seamBatches {
		assertBackwardBatchMatchesSingle(t, "ReLU", func() (*Network, *Network) {
			return NewNetwork(NewReLU()), NewNetwork(NewReLU())
		}, randomBatch(r, batch, 21), randomBatch(r, batch, 21), 1)
	}
	const head, static = 14, 6
	for _, width := range paperWidths {
		for _, sh := range frontShapes {
			build := func() (*Network, *Network) {
				return NewNetwork(newFront(rng.New(33), head, width, sh.kernel, sh.stride)),
					NewNetwork(newFront(rng.New(33), head, width, sh.kernel, sh.stride))
			}
			n, _ := build()
			outDim := n.OutDim(head + static)
			for _, batch := range seamBatches {
				name := fmt.Sprintf("Split width=%d kernel=%d stride=%d batch=%d", width, sh.kernel, sh.stride, batch)
				x, dy := randomBatch(r, batch, head+static), sparseGrad(r, batch, outDim)
				// The rectifier zeroes about half the responses' gradients on
				// top of sparseGrad's exact zeros. workers 4 runs where it
				// shards the filters, the wide, long batches.
				assertBackwardBatchMatchesSingle(t, name, build, x, dy, 1)
				if parRows(width, batch*n.layers[0].(*Split).conv.outLen(), 4) {
					assertBackwardBatchMatchesSingle(t, name+" workers=4", build, x, dy, 4)
				}
			}
		}
	}
}

// leanMatrix reports whether the expensive bitwise matrices should run their
// reduced form: under -short and under the race detector (`make check` is
// both, `make check-parallel` the latter).
func leanMatrix() bool { return testing.Short() || raceEnabled }

// TestNetworkBackwardBatchBitwise runs the full MiniCost-shaped stack
// (Split(Conv1D→ReLU) → Dense → ReLU → Dense) through the batched gradient
// pass and pins bitwise equality to the scalar oracle.
func TestNetworkBackwardBatchBitwise(t *testing.T) {
	r := rng.New(24)
	const head, static = 28, 6
	for _, width := range paperWidths {
		for _, sh := range frontShapes {
			mk := func() *Network {
				seed := rng.New(34)
				front := newFront(seed, head, width, sh.kernel, sh.stride)
				return NewNetwork(front, NewDense(seed, front.OutDim(head+static), width), NewReLU(), NewDense(seed, width, 3))
			}
			// One pair serves every batch length: the assertion reseeds all
			// gradients, and scratch that has seen other shapes is part of
			// what is tested.
			batched, single := mk(), mk()
			pair := func() (*Network, *Network) { return batched, single }
			for _, batch := range seamBatches {
				// The per-row oracle makes the wide stacks slow: widths past
				// 32 run the multi-panel batch at the paper's front-end only,
				// and the lean matrix keeps the panel seams to widths 4 and 16
				// and the other front-ends to widths up to 32.
				if width > 32 && sh.kernel != 4 && (batch > 65 || leanMatrix()) {
					continue
				}
				if leanMatrix() && width > 16 && batch > 17 {
					continue
				}
				name := fmt.Sprintf("Network width=%d kernel=%d stride=%d batch=%d", width, sh.kernel, sh.stride, batch)
				x := randomBatch(r, batch, head+static)
				dy := sparseGrad(r, batch, 3)
				for _, workers := range []int{1, 0} {
					assertBackwardBatchMatchesSingle(t, name, pair, x, dy, workers)
				}
			}
		}
	}
}

// TestBackwardBatchAccumulatesAcrossBatches checks that two consecutive
// ForwardBatch/BackwardBatch rounds accumulate gradients identically to the
// scalar oracle over both batches in sequence — the exact shape of an
// A3C update that backprops actor and critic losses without ZeroGrad between
// rollout rows.
func TestBackwardBatchAccumulatesAcrossBatches(t *testing.T) {
	r := rng.New(25)
	mk := func() *Network {
		seed := rng.New(35)
		return NewNetwork(NewDense(seed, 12, 8), NewReLU(), NewDense(seed, 8, 4))
	}
	batched, single := mk(), mk()
	x1, dy1 := randomBatch(r, 7, 12), randomBatch(r, 7, 4)
	x2, dy2 := randomBatch(r, 5, 12), sparseGrad(r, 5, 4)

	refGrads(single, x1, dy1)
	wantGrad, _ := refGrads(single, x2, dy2)

	batched.ForwardBatch(x1, 1)
	batched.BackwardBatch(dy1, 1)
	batched.ForwardBatch(x2, 1)
	batched.BackwardBatch(dy2, 1)
	gotGrad := gradVector(batched)

	for i := range wantGrad {
		if gotGrad[i] != wantGrad[i] {
			t.Fatalf("grad elem %d = %v, want %v after two batches", i, gotGrad[i], wantGrad[i])
		}
	}
}

// TestBackwardBatchSteadyStateAllocFree pins the buffer-reuse contract: after
// warm-up, repeated same-shape ForwardBatch+BackwardBatch rounds allocate
// nothing.
func TestBackwardBatchSteadyStateAllocFree(t *testing.T) {
	r := rng.New(26)
	seed := rng.New(36)
	front := NewNetwork(NewConv1D(seed, 14, 16, 4, 1), NewReLU())
	concat := front.OutDim(14) + 5
	net := NewNetwork(NewSplit(14, front), NewDense(seed, concat, 32), NewReLU(), NewDense(seed, 32, 3))
	x := randomBatch(r, 21, 19)
	dy := randomBatch(r, 21, 3)
	net.ForwardBatch(x, 1)
	net.BackwardBatch(dy, 1)
	allocs := testing.AllocsPerRun(10, func() {
		net.ForwardBatch(x, 1)
		net.BackwardBatch(dy, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batched train pass allocates %v times per round, want 0", allocs)
	}
}
