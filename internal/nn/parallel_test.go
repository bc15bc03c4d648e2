package nn

import (
	"fmt"
	"math"
	"testing"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// agentNet builds the agent-shaped stack (conv front-end behind a Split,
// hidden Dense, output Dense) at the given widths.
func agentNet(r *rng.RNG, head, filters, hidden, out, static int) *Network {
	front := NewNetwork(NewConv1D(r, head, filters, 4, 1), NewReLU())
	concat := front.OutDim(head) + static
	return NewNetwork(
		NewSplit(head, front),
		NewDense(r, concat, hidden),
		NewReLU(),
		NewDense(r, hidden, out),
	)
}

// parallelNetShapes cover odd batch sizes and widths not divisible by the
// pack lanes, the GEMM panels, or any tested worker count — plus the paper
// configuration.
var parallelNetShapes = []struct{ head, filters, hidden, batch int }{
	{28, 128, 128, 256}, // paper128 at a serving-size batch
	{28, 33, 65, 97},    // ragged everywhere
	{14, 5, 17, 65},     // tiny widths, odd batch
	{14, 16, 32, 17},    // one row past a 16-row window
	{14, 16, 32, 7},     // a 7-row rollout arena (E = 1)
}

// TestForwardBackwardBatchParallelBitwise pins the whole batched engine at
// every worker count against workers=1: forward activations, parameter
// gradients, and the returned input gradients must all be bitwise
// identical — the parallel decomposition only shards independent elements.
func TestForwardBackwardBatchParallelBitwise(t *testing.T) {
	for _, sh := range parallelNetShapes {
		r := rng.New(11)
		n := agentNet(r, sh.head, sh.filters, sh.hidden, 3, 6)
		grads := n.FlattenGrads()
		x := randomBatch(r, sh.batch, sh.head+6)
		dy := randomBatch(r, sh.batch, 3)
		// Sprinkle exact zeros through the output gradient so Conv1D's
		// zero-skip stays on the tested path.
		for i := 0; i < len(dy.Data); i += 3 {
			dy.Data[i] = 0
		}

		n.ZeroGrad()
		wantY := append([]float64(nil), n.ForwardBatch(x, 1).Data...)
		wantDX := append([]float64(nil), n.BackwardBatch(dy, 1).Data...)
		wantG := append([]float64(nil), grads...)

		for _, workers := range []int{2, 3, 8} {
			n.ZeroGrad()
			y := n.ForwardBatch(x, workers)
			for i := range wantY {
				if y.Data[i] != wantY[i] {
					t.Fatalf("shape %+v workers %d: forward elem %d = %v, want %v",
						sh, workers, i, y.Data[i], wantY[i])
				}
			}
			dx := n.BackwardBatch(dy, workers)
			for i := range wantDX {
				if dx.Data[i] != wantDX[i] {
					t.Fatalf("shape %+v workers %d: input grad elem %d = %v, want %v",
						sh, workers, i, dx.Data[i], wantDX[i])
				}
			}
			for i := range wantG {
				if grads[i] != wantG[i] {
					t.Fatalf("shape %+v workers %d: param grad elem %d = %v, want %v",
						sh, workers, i, grads[i], wantG[i])
				}
			}
		}
	}
}

// TestBackwardBatchParallelSteadyStateAllocFree gates the workers=1 training
// steady state end to end: with warm scratch, one forward+backward round
// performs no allocations.
func TestBackwardBatchParallelSteadyStateAllocFree(t *testing.T) {
	r := rng.New(12)
	n := agentNet(r, 14, 16, 32, 3, 6)
	n.FlattenGrads()
	x := randomBatch(r, 64, 20)
	dy := randomBatch(r, 64, 3)
	n.ForwardBatch(x, 1)
	n.BackwardBatch(dy, 1)
	allocs := testing.AllocsPerRun(10, func() {
		n.ForwardBatch(x, 1)
		n.BackwardBatch(dy, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state forward+backward allocates %.0f/op at workers=1, want 0", allocs)
	}
}

// TestSoftmaxInto pins the softmax's arithmetic — shift by the maximum,
// exponentiate, divide by the sum accumulated in index order — and that it
// does not allocate.
func TestSoftmaxInto(t *testing.T) {
	logits := []float64{0.3, -2.5, 11.0, 0.0, 3.25}
	want := make([]float64, len(logits))
	sum := 0.0
	for i, v := range logits {
		want[i] = math.Exp(v - 11.0)
		sum += want[i]
	}
	for i := range want {
		want[i] /= sum
	}
	out := make([]float64, len(logits))
	allocs := testing.AllocsPerRun(10, func() { SoftmaxInto(out, logits) })
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("SoftmaxInto[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if allocs != 0 {
		t.Fatalf("SoftmaxInto allocates %.0f/op, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SoftmaxInto with mismatched lengths did not panic")
		}
	}()
	SoftmaxInto(out[:2], logits)
}

var sinkMat *mat.Matrix

// BenchmarkForwardBackwardBatchWorkers measures the paper-width batched
// round at several intra-call worker counts (meaningful on multi-core
// GOMAXPROCS only; at one core the fan-out is pure overhead).
func BenchmarkForwardBackwardBatchWorkers(b *testing.B) {
	r := rng.New(13)
	n := agentNet(r, 28, 128, 128, 3, 6)
	n.FlattenGrads()
	x := randomBatch(r, 256, 34)
	dy := randomBatch(r, 256, 3)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			n.ForwardBatch(x, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkMat = n.ForwardBatch(x, workers)
				sinkMat = n.BackwardBatch(dy, workers)
			}
		})
	}
}
