package nn

import (
	"fmt"
	"testing"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// These tests pin the batched-pass properties the vectorized rollout engine
// (rl/vectrain.go) leans on: a forward pass over a row view into a larger
// arena (mat.SliceRows) is indistinguishable from one over an owned matrix; a
// batch forwarded one row window at a time (Network.ForwardRows) is
// indistinguishable, activations and gradients, from one ForwardBatch; and
// the engine's cadence — NSteps window forwards and a params-only backward on
// the actor, an E-row bootstrap batch alternating with the E·NSteps-row arena
// on the critic — stays allocation-free once the layer scratch has seen it.

func vecTestNet(r *rng.RNG, head int) *Network {
	front := NewNetwork(NewConv1D(r, head, 16, 4, 1), NewReLU())
	return NewNetwork(
		NewSplit(head, front),
		NewDense(r, front.OutDim(head)+6, 32),
		NewReLU(),
		NewDense(r, 32, 3),
	)
}

// TestForwardBatchOnArenaViewBitwise runs every lockstep block of a step-major
// arena through ForwardBatch as a SliceRows view and checks the outputs are
// bitwise identical both to a copied standalone batch and, row by row, to the
// scalar oracle.
func TestForwardBatchOnArenaViewBitwise(t *testing.T) {
	r := rng.New(9)
	const head, envs, steps = 14, 4, 7
	n := vecTestNet(r, head)
	dim := head + 6
	arena := randomBatch(r, envs*steps, dim)
	view := &mat.Matrix{}
	for s := 0; s < steps; s++ {
		arena.SliceRows(view, s*envs, (s+1)*envs)
		copied := mat.New(envs, dim)
		copy(copied.Data, view.Data)

		got := append([]float64(nil), n.ForwardBatch(view, 1).Data...)
		want := n.ForwardBatch(copied, 1)
		for i := range want.Data {
			if got[i] != want.Data[i] {
				t.Fatalf("step %d: view elem %d = %v, copied batch %v", s, i, got[i], want.Data[i])
			}
		}
		for row := 0; row < envs; row++ {
			single := n.refForward(arena.Row(s*envs + row))
			for i, v := range single {
				if got[row*want.Cols+i] != v {
					t.Fatalf("step %d row %d elem %d: view %v, oracle %v", s, row, i, got[row*want.Cols+i], v)
				}
			}
		}
	}
}

// rowWindows are partitions of a 77-row batch, each in the order its windows
// run: lengths from one row to all 77, on both sides of 16 and of nothing in
// particular, front to back, back to front and scrambled, and the whole
// range.
var rowWindows = [][][2]int{
	{{0, 77}},
	{{0, 16}, {16, 32}, {32, 48}, {48, 64}, {64, 77}},
	{{61, 77}, {45, 61}, {44, 45}, {21, 44}, {5, 21}, {0, 5}},
	{{30, 47}, {0, 15}, {62, 77}, {15, 30}, {47, 62}},
	{{7, 8}, {8, 77}, {0, 7}},
}

// TestForwardRowsPartitionsBitwise pins ForwardRows' contract: whatever the
// partition of [0, Rows) and the order of its windows, whether the network
// owns its weights or is bound to them, whether the batch is its own matrix
// or a view into an arena, serially and fanned out, the outputs, the
// parameter gradients and the input gradient a BackwardBatch then computes
// are bit for bit those of one ForwardBatch + BackwardBatch — and a network
// that owns its weights packs once per window, a bound one once for all the
// windows.
func TestForwardRowsPartitionsBitwise(t *testing.T) {
	r := rng.New(12)
	const head, rows = 14, 77
	dim := head + 6
	arena := randomBatch(r, rows+9, dim)
	view := &mat.Matrix{}
	arena.SliceRows(view, 4, 4+rows)
	owned := view.Clone()
	dy := sparseGrad(r, rows, 3)

	// Wide enough that the 16-row windows cross the kernels' parallel
	// thresholds at workers 4.
	ref := agentNet(r, head, 64, 128, 3, 6)
	refGrad := ref.FlattenGrads()
	wantY := append([]float64(nil), ref.ForwardBatch(owned, 1).Data...)
	wantDx := append([]float64(nil), ref.BackwardBatch(dy, 1).Data...)
	wantGrad := append([]float64(nil), refGrad...)

	for _, bound := range []bool{false, true} {
		n := ref.Clone()
		if bound {
			n = ref.BoundClone()
		}
		grad := n.FlattenGrads()
		for _, x := range []*mat.Matrix{owned, view} {
			for wi, windows := range rowWindows {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("bound=%v view=%v partition %d workers %d", bound, x == view, wi, workers)
					n.ZeroGrad()
					if bound {
						n.BindParamVector(ref.ParamVector())
					}
					packs := n.WeightPacks()
					var y *mat.Matrix
					for _, w := range windows {
						y = n.ForwardRows(x, w[0], w[1], workers)
					}
					if i, ok := sameBits(y.Data, wantY); !ok {
						t.Fatalf("%s: output elem %d differs from ForwardBatch", name, i)
					}
					wantPacks := len(windows) // owned weights: every window packs
					if bound {
						wantPacks = 1 // one bind, one pack
					}
					if got := n.WeightPacks() - packs; got != wantPacks {
						t.Fatalf("%s: %d packs, want %d", name, got, wantPacks)
					}
					dx := n.BackwardBatch(dy, workers)
					if i, ok := sameBits(dx.Data, wantDx); !ok {
						t.Fatalf("%s: input-grad elem %d differs from ForwardBatch + BackwardBatch", name, i)
					}
					if i, ok := sameBits(grad, wantGrad); !ok {
						t.Fatalf("%s: param-grad elem %d differs from ForwardBatch + BackwardBatch", name, i)
					}
				}
			}
		}
	}
}

// TestBoundCloneSharesValuesOwnsGrads pins what a training replica is: the
// source's parameter values, shared; zeroed gradients of its own in one flat
// vector that FlattenGrads hands out as it is; nothing of the source's
// gradients, and no way for a backward pass on it to reach them.
func TestBoundCloneSharesValuesOwnsGrads(t *testing.T) {
	r := rng.New(13)
	src := vecTestNet(r, 14)
	for _, p := range src.Params() {
		for i := range p.Grad {
			p.Grad[i] = 1
		}
	}
	rep := src.BoundClone()
	flat := rep.FlattenGrads()
	if len(flat) != src.NumParams() {
		t.Fatalf("flat gradient vector has %d elements, want %d", len(flat), src.NumParams())
	}
	off := 0
	sp, rp := src.Params(), rep.Params()
	for i := range sp {
		if &sp[i].Value[0] != &rp[i].Value[0] {
			t.Fatalf("param %d: values copied, want shared", i)
		}
		if &rp[i].Grad[0] != &flat[off] || len(rp[i].Grad) != len(sp[i].Grad) {
			t.Fatalf("param %d: gradient is not its span of the flat vector", i)
		}
		off += len(rp[i].Grad)
	}
	for i, g := range flat {
		if g != 0 {
			t.Fatalf("replica gradient %d starts at %v, want 0", i, g)
		}
	}
	x, dy := randomBatch(r, 20, 20), randomBatch(r, 20, 3)
	rep.ForwardBatch(x, 1)
	rep.BackwardParams(dy, 1)
	for _, p := range sp {
		for i, g := range p.Grad {
			if g != 1 {
				t.Fatalf("a backward pass on the replica moved the source's gradient %d to %v", i, g)
			}
		}
	}
	assertPanics(t, "BoundClone on a frozen network", func() { src.Freeze().BoundClone() })
}

// TestForwardBatchAlternatingShapesAllocFree drives the exact cadence of one
// vectorized update on each of its two replicas — the actor's NSteps E-row
// window forwards over the arena and a params-only backward; the critic's
// E-row bootstrap batch alternating with the E·NSteps-row arena, and a
// params-only backward; a new bind before each round, as a worker's is — and
// requires the steady state to allocate nothing: layer scratch and the bound
// pack grow once and then serve every shape.
func TestForwardBatchAlternatingShapesAllocFree(t *testing.T) {
	for _, envs := range []int{4, 16} {
		r := rng.New(10)
		const head, steps = 14, 7
		proto := vecTestNet(r, head)
		actor, critic := proto.BoundClone(), proto.BoundClone()
		dim := head + 6
		arena := randomBatch(r, envs*steps, dim)
		boot := randomBatch(r, envs, dim)
		dy := mat.New(envs*steps, 3)
		for i := range dy.Data {
			dy.Data[i] = r.NormalMS(0, 0.1)
		}
		rollout := func() {
			for _, n := range []*Network{actor, critic} {
				n.weightsChanged(true) // BindParamVector, less its walk over Params()
				n.ZeroGrad()
			}
			for s := 0; s < steps; s++ {
				actor.ForwardRows(arena, s*envs, (s+1)*envs, 1)
			}
			critic.ForwardBatch(boot, 1)
			critic.ForwardBatch(arena, 1)
			critic.BackwardParams(dy, 1)
			actor.BackwardParams(dy, 1)
		}
		rollout() // warm the scratch for both shapes
		rollout()
		if allocs := testing.AllocsPerRun(10, rollout); allocs != 0 {
			t.Fatalf("E=%d: one update's cadence allocates %.0f/op, want 0", envs, allocs)
		}
	}
}
