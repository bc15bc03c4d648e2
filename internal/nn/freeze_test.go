package nn

import (
	"testing"

	"minicost/internal/rng"
)

// assertPanics runs fn and fails unless it panics.
func assertPanics(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// assertNetMatchesSingle checks ForwardBatch on x against the scalar oracle
// on ref, row by row, bit for bit.
func assertNetMatchesSingle(t *testing.T, name string, batched, ref *Network, rows int, seed uint64) {
	t.Helper()
	x := randomBatch(rng.New(seed), rows, 20)
	y := batched.ForwardBatch(x, 1)
	for r := 0; r < rows; r++ {
		if i, ok := sameBits(y.Row(r), ref.refForward(x.Row(r))); !ok {
			t.Fatalf("%s: %d-row batch, row %d elem %d differs from the scalar oracle", name, rows, r, i)
		}
	}
}

// TestForwardBatchSeesRebinds pins when a pack of the weights may outlive the
// ForwardBatch that built it. A network that owns its weights packs on every
// call. One bound to a caller's vector packs once per BindParamVector or
// SetParamVector call — the caller keeps the vector immutable in between —
// so new values show exactly when they arrive through one of the two, the
// same slice bound again included, and no pack built under one call serves a
// batch after the next.
func TestForwardBatchSeesRebinds(t *testing.T) {
	r := rng.New(40)
	n := agentNet(r, 14, 16, 32, 3, 6)
	n.FlattenGrads() // training-style: flat gradients, bound parameters
	ref := n.Clone()
	const rows = 2 * packMinRows // the packed path
	assertNetMatchesSingle(t, "initial weights", n, ref, rows, 1)
	assertNetMatchesSingle(t, "initial weights, again", n, ref, rows, 5)
	if got := n.WeightPacks(); got != 2 {
		t.Fatalf("a network that owns its weights packed %d times in 2 batches, want 2", got)
	}

	bound := n.ParamVector()
	for i := range bound {
		bound[i] = r.NormalMS(0, 0.5)
	}
	n.BindParamVector(bound)
	ref.SetParamVector(bound)
	assertNetMatchesSingle(t, "after BindParamVector", n, ref, rows, 2)
	assertNetMatchesSingle(t, "after BindParamVector, again", n, ref, rows, 6)
	assertNetMatchesSingle(t, "after BindParamVector, a short batch", n, ref, packMinRows-1, 7)
	if got := n.WeightPacks(); got != 3 {
		t.Fatalf("%d packs after one bind and three batches, want 3 (2 before the bind, 1 for it)", got)
	}

	// The bound vector is the caller's, and a trainer does apply its update
	// in place: rewrite it, then bind again — the same slice, at the same
	// address — and the new values show.
	for i := range bound {
		bound[i] = -bound[i]
	}
	n.BindParamVector(bound)
	ref.SetParamVector(bound)
	assertNetMatchesSingle(t, "after rewriting and re-binding the same vector", n, ref, rows, 3)

	set := make([]float64, len(bound))
	for i := range set {
		set[i] = r.NormalMS(0, 0.5)
	}
	n.SetParamVector(set)
	ref.SetParamVector(set)
	assertNetMatchesSingle(t, "after SetParamVector", n, ref, rows, 4)
	if got := n.WeightPacks(); got != 5 {
		t.Fatalf("%d packs, want 5: one more per BindParamVector and SetParamVector call", got)
	}
}

// TestBoundForwardAfterBackward pins what a backward pass does to a bound
// Dense's forward pack. Where the hidden layer's input is read in place
// (182 columns) it leaves the pack alone, so a forward after it within the
// same bind packs nothing; where it is too wide (534 columns) its transposed
// packs overwrite the pack's buffer, and the forward packs again. Either
// way the forward answers bit for bit what a fresh replica answers.
func TestBoundForwardAfterBackward(t *testing.T) {
	for _, c := range []struct {
		filters, packs int
	}{{16, 1}, {48, 2}} {
		src := agentNet(rng.New(44), 14, c.filters, 32, 3, 6)
		n, fresh := src.BoundClone(), src.BoundClone()
		const rows = 2 * packMinRows
		x := randomBatch(rng.New(45), rows, 20)
		n.ForwardBatch(x, 1)
		n.BackwardBatch(randomBatch(rng.New(46), rows, 3), 1)
		got := n.ForwardBatch(x, 1)
		if i, ok := sameBits(got.Data, fresh.ForwardBatch(x, 1).Data); !ok {
			t.Fatalf("%d filters: forward after a backward differs from a fresh replica's at %d", c.filters, i)
		}
		if packs := n.WeightPacks(); packs != c.packs {
			t.Fatalf("%d filters: %d packs for forward, backward, forward in one bind, want %d", c.filters, packs, c.packs)
		}
	}
}

// TestFreezeSharesWeightsAndPacks pins what a frozen view is: the source's
// parameter values and one pack per Dense block, shared by every view of the
// freeze; outputs bitwise equal to the source's on both sides of packMinRows;
// no gradients and no way to rewrite parameters.
func TestFreezeSharesWeightsAndPacks(t *testing.T) {
	src := agentNet(rng.New(41), 14, 16, 32, 3, 6)
	frozen := src.Freeze()
	views := []*Network{frozen, frozen.Freeze(), frozen.Clone()}

	for vi, v := range views {
		for _, rows := range []int{1, packMinRows - 1, packMinRows, 65} {
			assertNetMatchesSingle(t, "frozen view", v, src, rows, uint64(rows))
		}
		sp, vp := src.Params(), v.Params()
		for i := range sp {
			if &sp[i].Value[0] != &vp[i].Value[0] {
				t.Fatalf("view %d param %d copied its values", vi, i)
			}
			if vp[i].Grad != nil {
				t.Fatalf("view %d param %d has gradients", vi, i)
			}
		}
		for li, l := range v.layers {
			d, ok := l.(*Dense)
			if !ok {
				continue
			}
			first := frozen.layers[li].(*Dense).wpack
			if d.wpack == nil || d.wpack != first {
				t.Fatalf("view %d Dense layer %d does not share the freeze's pack", vi, li)
			}
		}
	}

	// Deciding must leave the shared pack alone: same storage, same contents.
	hidden := frozen.layers[1].(*Dense)
	before := append([]float64(nil), hidden.wpack.Data...)
	x := randomBatch(rng.New(42), 64, 20)
	frozen.ForwardBatch(x, 1)
	if allocs := testing.AllocsPerRun(10, func() { frozen.ForwardBatch(x, 1) }); allocs != 0 {
		t.Fatalf("steady-state ForwardBatch on a frozen view allocates %.0f times per call, want 0", allocs)
	}
	if i, ok := sameBits(hidden.wpack.Data, before); !ok {
		t.Fatalf("ForwardBatch rewrote the shared pack at %d", i)
	}

	v := src.ParamVector()
	for name, op := range map[string]func(){
		"SetParamVector":  func() { frozen.SetParamVector(v) },
		"BindParamVector": func() { frozen.BindParamVector(v) },
		"FlattenGrads":    func() { frozen.FlattenGrads() },
	} {
		assertPanics(t, name+" on a frozen network", op)
	}
}

// TestNewSplitRejectsOtherInners pins the front-end's shape: the batched
// passes are written for Conv1D→ReLU, so nothing else may be wrapped.
func TestNewSplitRejectsOtherInners(t *testing.T) {
	r := rng.New(43)
	for name, build := range map[string]func(){
		"a Dense inner":    func() { NewSplit(8, NewNetwork(NewDense(r, 8, 4), NewReLU())) },
		"no activation":    func() { NewSplit(8, NewNetwork(NewConv1D(r, 8, 3, 4, 1))) },
		"a head mismatch":  func() { NewSplit(6, NewNetwork(NewConv1D(r, 8, 3, 4, 1), NewReLU())) },
		"a trailing layer": func() { NewSplit(8, NewNetwork(NewConv1D(r, 8, 3, 4, 1), NewReLU(), NewReLU())) },
	} {
		assertPanics(t, "NewSplit with "+name, build)
	}
}
