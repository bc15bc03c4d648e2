package nn

import (
	"math"
	"testing"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// loss is 0.5*||net(x) - target||^2 on the scalar oracle; the gradient
// checks estimate its derivatives by central differences.
func loss(n *Network, x, target []float64) float64 {
	y := n.refForward(x)
	s := 0.0
	for i := range y {
		d := y[i] - target[i]
		s += float64(0.5 * d * d)
	}
	return s
}

// analyticGrads runs the scalar oracle forward and backward and returns the
// flat param grads and the input grads.
func analyticGrads(n *Network, x, target []float64) (pg, xg []float64) {
	n.ZeroGrad()
	y := n.refForward(x)
	dy := make([]float64, len(y))
	for i := range y {
		dy[i] = y[i] - target[i]
	}
	xg = n.refBackward(x, dy)
	return gradVector(n), xg
}

// rowBatch wraps one sample as a one-row batch.
func rowBatch(x []float64) *mat.Matrix {
	return &mat.Matrix{Rows: 1, Cols: len(x), Data: x}
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
	y := c.ForwardBatch(mat.New(1, 14))
	if y.Rows != 1 || y.Cols != 128*11 {
		t.Fatalf("forward shape %dx%d", y.Rows, y.Cols)
	}
}

func TestConv1DKnownValues(t *testing.T) {
	r := rng.New(16)
	c := NewConv1D(r, 4, 1, 2, 1)
	copy(c.w.Value, []float64{1, -1})
	c.b.Value[0] = 0.5
	y := c.ForwardBatch(rowBatch([]float64{3, 1, 4, 1})).Row(0)
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
	x := rowBatch([]float64{1, 2, 3})
	// ForwardBatch's return is owned by the network; copy before the next call.
	y1 := append([]float64(nil), n.ForwardBatch(x, 1).Row(0)...)
	y2 := c.ForwardBatch(x, 1).Row(0)
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
	y3 := n.ForwardBatch(x, 1).Row(0)
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
	for _, g := range gradVector(n) {
		if g != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("expected nonzero grads")
	}
	n.ZeroGrad()
	for _, g := range gradVector(n) {
		if g != 0 {
			t.Fatal("ZeroGrad left residue")
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	// Two backward passes without ZeroGrad must sum gradients.
	r := rng.New(20)
	n := NewNetwork(NewDense(r, 2, 2))
	x := rowBatch([]float64{1, 2})
	// The loss is 0.5*||net(x)||^2, so dy is the output itself.
	dy := mat.New(1, 2)
	copy(dy.Data, n.ForwardBatch(x, 1).Data)
	n.BackwardBatch(dy, 1)
	g1 := gradVector(n)
	n.ForwardBatch(x, 1)
	n.BackwardBatch(dy, 1)
	g2 := gradVector(n)
	for i := range g1 {
		if math.Abs(g2[i]-float64(2*g1[i])) > 1e-12 {
			t.Fatal("gradients do not accumulate")
		}
	}
}

// softmax is SoftmaxInto into a fresh slice.
func softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	SoftmaxInto(out, logits)
	return out
}

func TestSoftmax(t *testing.T) {
	p := softmax([]float64{1, 2, 3})
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
	p = softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || math.Abs(p[0]+p[1]-1) > 1e-12 {
		t.Fatal("softmax unstable")
	}
	// Shift invariance.
	a := softmax([]float64{0.3, -0.2, 1.4})
	b := softmax([]float64{10.3, 9.8, 11.4})
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

func TestClipScale(t *testing.T) {
	g := []float64{3, 4} // norm 5
	if norm, scale := ClipScale(g, 10); norm != 5 || scale != 1 {
		t.Fatalf("ClipScale below the threshold returned %v, %v, want the norm 5 and 1", norm, scale)
	}
	norm, scale := ClipScale(g, 1)
	if norm != 5 || scale != 0.2 {
		t.Fatalf("ClipScale returned %v, %v, want the pre-clip norm 5 and 1/5", norm, scale)
	}
	if math.Abs(math.Hypot(g[0]*scale, g[1]*scale)-1) > 1e-12 {
		t.Fatalf("clipped norm %v", math.Hypot(g[0]*scale, g[1]*scale))
	}
	if g[0] != 3 || g[1] != 4 {
		t.Fatal("ClipScale changed grads")
	}
	if norm, scale := ClipScale(g, 0); !math.IsNaN(norm) || scale != 1 { // no-op
		t.Fatalf("ClipScale with maxNorm 0 returned %v, %v, want NaN and 1", norm, scale)
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
			target := func(x [2]float64) float64 { return float64(2*x[0]) - float64(3*x[1]) + 1 }
			evalLoss := func() float64 {
				s := 0.0
				for _, d := range data {
					s += loss(n, d[:], []float64{target(d)})
				}
				return s / float64(len(data))
			}
			before := evalLoss()
			x, dy := mat.New(len(data), 2), mat.New(len(data), 1)
			for i, d := range data {
				copy(x.Row(i), d[:])
			}
			params := n.ParamVector()
			for epoch := 0; epoch < 300; epoch++ {
				n.ZeroGrad()
				y := n.ForwardBatch(x, 1)
				for i, d := range data {
					dy.Data[i] = y.Data[i] - target(d)
				}
				n.BackwardParams(dy)
				g := gradVector(n)
				for i := range g {
					g[i] /= float64(len(data))
				}
				opt.Step(params, g, 1)
				n.SetParamVector(params)
			}
			after := evalLoss()
			if after > before*0.05 {
				t.Fatalf("%s: loss %v -> %v (insufficient progress)", name, before, after)
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
	d.ForwardBatch(rowBatch([]float64{1, 2}))
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
