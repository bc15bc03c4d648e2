package nn

import (
	"math"
	"testing"

	"minicost/internal/rng"
)

// numericGrad estimates d(loss)/d(theta) by central differences, where loss
// is 0.5*||net(x) - target||^2.
func loss(n *Network, x, target []float64) float64 {
	y := n.Forward(x)
	s := 0.0
	for i := range y {
		d := y[i] - target[i]
		s += 0.5 * d * d
	}
	return s
}

// analyticGrads runs forward/backward and returns the flat param grads and
// the input grads.
func analyticGrads(n *Network, x, target []float64) (pg, xg []float64) {
	n.ZeroGrad()
	y := n.Forward(x)
	dy := make([]float64, len(y))
	for i := range y {
		dy[i] = y[i] - target[i]
	}
	xg = n.Backward(dy)
	return n.GradVector(), xg
}

func checkGradients(t *testing.T, n *Network, inDim int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	x := make([]float64, inDim)
	for i := range x {
		x[i] = r.NormalMS(0, 1)
	}
	target := make([]float64, n.OutDim(inDim))
	for i := range target {
		target[i] = r.NormalMS(0, 1)
	}

	pg, xg := analyticGrads(n, x, target)

	// Parameter gradients.
	params := n.ParamVector()
	const h = 1e-6
	for _, idx := range sampleIndices(r, len(params), 30) {
		orig := params[idx]
		params[idx] = orig + h
		n.SetParamVector(params)
		lp := loss(n, x, target)
		params[idx] = orig - h
		n.SetParamVector(params)
		lm := loss(n, x, target)
		params[idx] = orig
		n.SetParamVector(params)
		num := (lp - lm) / (2 * h)
		if math.Abs(num-pg[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("param grad %d: analytic %v vs numeric %v", idx, pg[idx], num)
		}
	}

	// Input gradients.
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		lp := loss(n, x, target)
		x[i] = orig - h
		lm := loss(n, x, target)
		x[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-xg[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad %d: analytic %v vs numeric %v", i, xg[i], num)
		}
	}
}

func sampleIndices(r *rng.RNG, n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return r.Perm(n)[:k]
}

func TestDenseGradients(t *testing.T) {
	r := rng.New(10)
	n := NewNetwork(NewDense(r, 6, 4))
	checkGradients(t, n, 6, 1)
}

func TestDeepDenseReLUGradients(t *testing.T) {
	r := rng.New(11)
	n := NewNetwork(NewDense(r, 5, 16), NewReLU(), NewDense(r, 16, 8), NewReLU(), NewDense(r, 8, 3))
	checkGradients(t, n, 5, 2)
}

func TestConv1DGradients(t *testing.T) {
	r := rng.New(12)
	n := NewNetwork(NewConv1D(r, 10, 3, 4, 1))
	checkGradients(t, n, 10, 3)
}

func TestConv1DStride2Gradients(t *testing.T) {
	r := rng.New(13)
	n := NewNetwork(NewConv1D(r, 12, 2, 3, 2), NewReLU(), NewDense(r, 2*5, 3))
	checkGradients(t, n, 12, 4)
}

func TestSplitGradients(t *testing.T) {
	// The paper's architecture shape: conv over the first 8 inputs (the
	// frequency history), 4 static features pass through, then dense.
	r := rng.New(14)
	inner := NewNetwork(NewConv1D(r, 8, 3, 4, 1), NewReLU())
	concatDim := inner.OutDim(8) + 4
	n := NewNetwork(NewSplit(8, inner), NewDense(r, concatDim, 10), NewReLU(), NewDense(r, 10, 3))
	checkGradients(t, n, 12, 5)
}

func TestConv1DOutputShape(t *testing.T) {
	r := rng.New(15)
	c := NewConv1D(r, 14, 128, 4, 1)
	if got := c.OutDim(14); got != 128*11 {
		t.Fatalf("OutDim = %d, want %d", got, 128*11)
	}
	y := c.Forward(make([]float64, 14))
	if len(y) != 128*11 {
		t.Fatalf("forward len %d", len(y))
	}
}

func TestConv1DKnownValues(t *testing.T) {
	r := rng.New(16)
	c := NewConv1D(r, 4, 1, 2, 1)
	copy(c.w.Value, []float64{1, -1})
	c.b.Value[0] = 0.5
	y := c.Forward([]float64{3, 1, 4, 1})
	want := []float64{3 - 1 + 0.5, 1 - 4 + 0.5, 4 - 1 + 0.5}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	r := rng.New(17)
	n := NewNetwork(NewDense(r, 4, 6), NewReLU(), NewDense(r, 6, 2))
	v := n.ParamVector()
	if len(v) != n.NumParams() || n.NumParams() != 4*6+6+6*2+2 {
		t.Fatalf("NumParams %d", n.NumParams())
	}
	for i := range v {
		v[i] = float64(i)
	}
	n.SetParamVector(v)
	got := n.ParamVector()
	for i := range v {
		if got[i] != v[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rng.New(18)
	n := NewNetwork(NewDense(r, 3, 3), NewReLU(), NewDense(r, 3, 2))
	c := n.Clone()
	x := []float64{1, 2, 3}
	// Forward's return is owned by the network; copy before the next call.
	y1 := append([]float64(nil), n.Forward(x)...)
	y2 := c.Forward(x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-15 {
			t.Fatal("clone diverges on forward")
		}
	}
	// Mutating the clone must not affect the original.
	v := c.ParamVector()
	for i := range v {
		v[i] += 1
	}
	c.SetParamVector(v)
	y3 := n.Forward(x)
	for i := range y1 {
		if y3[i] != y1[i] {
			t.Fatal("clone shares storage with original")
		}
	}
}

func TestZeroGrad(t *testing.T) {
	r := rng.New(19)
	n := NewNetwork(NewDense(r, 3, 2))
	analyticGrads(n, []float64{1, 2, 3}, []float64{0, 0})
	nonzero := false
	for _, g := range n.GradVector() {
		if g != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("expected nonzero grads")
	}
	n.ZeroGrad()
	for _, g := range n.GradVector() {
		if g != 0 {
			t.Fatal("ZeroGrad left residue")
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	// Two backward passes without ZeroGrad must sum gradients.
	r := rng.New(20)
	n := NewNetwork(NewDense(r, 2, 2))
	x := []float64{1, 2}
	tgt := []float64{0, 0}
	g1, _ := analyticGrads(n, x, tgt)
	// analyticGrads zeroes first; now do a second backward on top.
	y := n.Forward(x)
	dy := make([]float64, len(y))
	for i := range y {
		dy[i] = y[i] - tgt[i]
	}
	n.Backward(dy)
	g2 := n.GradVector()
	for i := range g1 {
		if math.Abs(g2[i]-2*g1[i]) > 1e-12 {
			t.Fatal("gradients do not accumulate")
		}
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	sum := 0.0
	for i := 0; i < len(p)-1; i++ {
		if p[i] >= p[i+1] {
			t.Fatal("softmax not monotone in logits")
		}
	}
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Fatal("softmax out of range")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", sum)
	}
	// Stability under large logits.
	p = Softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || math.Abs(p[0]+p[1]-1) > 1e-12 {
		t.Fatal("softmax unstable")
	}
	// Shift invariance.
	a := Softmax([]float64{0.3, -0.2, 1.4})
	b := Softmax([]float64{10.3, 9.8, 11.4})
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("softmax not shift invariant")
		}
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{0.5, 0.5}); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("entropy %v, want ln2", got)
	}
	if got := Entropy([]float64{1, 0}); got != 0 {
		t.Fatalf("deterministic entropy %v", got)
	}
	uniform := Entropy([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3})
	skewed := Entropy([]float64{0.8, 0.1, 0.1})
	if uniform <= skewed {
		t.Fatal("uniform should maximize entropy")
	}
}

func TestClipGrads(t *testing.T) {
	g := []float64{3, 4} // norm 5
	ClipGrads(g, 10)
	if g[0] != 3 || g[1] != 4 {
		t.Fatal("clip below threshold changed grads")
	}
	ClipGrads(g, 1)
	if math.Abs(math.Hypot(g[0], g[1])-1) > 1e-12 {
		t.Fatalf("clipped norm %v", math.Hypot(g[0], g[1]))
	}
	ClipGrads(g, 0) // no-op
	if math.Abs(math.Hypot(g[0], g[1])-1) > 1e-12 {
		t.Fatal("maxNorm=0 should be a no-op")
	}
}

func TestOptimizersReduceLoss(t *testing.T) {
	// Each optimizer must fit a small regression problem.
	for name, mk := range map[string]func() Optimizer{
		"rmsprop": func() Optimizer { return NewRMSProp(0.005) },
	} {
		t.Run(name, func(t *testing.T) {
			r := rng.New(21)
			n := NewNetwork(NewDense(r, 2, 8), NewReLU(), NewDense(r, 8, 1))
			opt := mk()
			data := make([][2]float64, 64)
			for i := range data {
				data[i] = [2]float64{r.NormalMS(0, 1), r.NormalMS(0, 1)}
			}
			target := func(x [2]float64) float64 { return 2*x[0] - 3*x[1] + 1 }
			evalLoss := func() float64 {
				s := 0.0
				for _, d := range data {
					s += loss(n, d[:], []float64{target(d)})
				}
				return s / float64(len(data))
			}
			before := evalLoss()
			params := n.ParamVector()
			for epoch := 0; epoch < 300; epoch++ {
				n.ZeroGrad()
				for _, d := range data {
					y := n.Forward(d[:])
					n.Backward([]float64{y[0] - target(d)})
				}
				g := n.GradVector()
				for i := range g {
					g[i] /= float64(len(data))
				}
				opt.Step(params, g)
				n.SetParamVector(params)
			}
			after := evalLoss()
			if after > before*0.05 {
				t.Fatalf("%s: loss %v -> %v (insufficient progress)", name, before, after)
			}
		})
	}
}

// TestStepToMatchesStepBitwise pins the double-buffering contract: a chain
// of StepTo calls ping-ponging between two buffers (the parameter server's
// apply pattern) must land bitwise identical to in-place Step with the same
// gradient sequence, for every optimizer.
func TestStepToMatchesStepBitwise(t *testing.T) {
	for name, mk := range map[string]func() Optimizer{
		"rmsprop": func() Optimizer { return NewRMSProp(0.005) },
	} {
		t.Run(name, func(t *testing.T) {
			r := rng.New(31)
			const dim = 203 // not a multiple of the unroll width
			inPlace := make([]float64, dim)
			bufA := make([]float64, dim)
			bufB := make([]float64, dim)
			for i := range inPlace {
				inPlace[i] = r.NormalMS(0, 1)
			}
			copy(bufA, inPlace)
			optRef, optTo := mk(), mk()
			cur, next := bufA, bufB
			g := make([]float64, dim)
			for step := 0; step < 25; step++ {
				for i := range g {
					g[i] = r.NormalMS(0, 0.1)
				}
				optRef.Step(inPlace, g)
				optTo.StepTo(next, cur, g)
				cur, next = next, cur
			}
			for i := range inPlace {
				if cur[i] != inPlace[i] {
					t.Fatalf("elem %d: StepTo chain %v, Step %v (not bitwise equal)", i, cur[i], inPlace[i])
				}
			}
		})
	}
}

func TestOptimizerLearningRateAccessors(t *testing.T) {
	for _, o := range []Optimizer{NewRMSProp(0.1)} {
		if o.LearningRate() != 0.1 {
			t.Fatal("LearningRate wrong")
		}
		o.SetLearningRate(0.5)
		if o.LearningRate() != 0.5 {
			t.Fatal("SetLearningRate ignored")
		}
	}
}

func TestDensePanicsOnBadInput(t *testing.T) {
	r := rng.New(22)
	d := NewDense(r, 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size accepted")
		}
	}()
	d.Forward([]float64{1, 2})
}

func BenchmarkForwardPaperNet(b *testing.B) {
	// The paper's architecture: Conv1D(128,4,1) over 14-day history plus 6
	// static features, hidden 128, 3 outputs.
	r := rng.New(1)
	hist := 14
	inner := NewNetwork(NewConv1D(r, hist, 128, 4, 1), NewReLU())
	concat := inner.OutDim(hist) + 6
	n := NewNetwork(NewSplit(hist, inner), NewDense(r, concat, 128), NewReLU(), NewDense(r, 128, 3))
	x := make([]float64, hist+6)
	for i := range x {
		x[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
	}
}

func BenchmarkForwardBackwardPaperNet(b *testing.B) {
	r := rng.New(1)
	hist := 14
	inner := NewNetwork(NewConv1D(r, hist, 128, 4, 1), NewReLU())
	concat := inner.OutDim(hist) + 6
	n := NewNetwork(NewSplit(hist, inner), NewDense(r, concat, 128), NewReLU(), NewDense(r, 128, 3))
	x := make([]float64, hist+6)
	dy := []float64{1, -1, 0.5}
	for i := range x {
		x[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
		n.Backward(dy)
	}
}
