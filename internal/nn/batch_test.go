package nn

import (
	"fmt"
	"math"
	"testing"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// paperWidths is Fig. 11's sweep (experiments.PaperWidths, which this
// package cannot import): filters = hidden = width.
var paperWidths = []int{4, 16, 32, 64, 128}

// seamBatches are batch lengths on both sides of the AVX-512 kernel's
// eight-row groups (15, 16, 17) and of the packed GEMM's 64-row panel, plus
// one with several panels and a ragged last one.
var seamBatches = []int{1, 15, 16, 17, 63, 64, 65, 513}

// frontShapes are the (kernel, stride) pairs the front-end tests run: the
// paper's, a strided one, the degenerate single tap, and one window as wide
// as the input (kernel 0 stands for the input length).
var frontShapes = []struct{ kernel, stride int }{{4, 1}, {3, 2}, {1, 1}, {0, 1}}

// newFront builds the Split∘Conv1D∘ReLU front-end over head inputs.
func newFront(r *rng.RNG, head, filters, kernel, stride int) *Split {
	if kernel == 0 {
		kernel = head
	}
	return NewSplit(head, NewNetwork(NewConv1D(r, head, filters, kernel, stride), NewReLU()))
}

// sameBits reports whether two float64 slices are bit-for-bit identical
// (±0 and NaN payloads told apart), returning the first differing index.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func randomBatch(r *rng.RNG, rows, cols int) *mat.Matrix {
	x := mat.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = r.NormalMS(0, 1)
	}
	return x
}

// assertBatchMatchesSingle checks that ForwardBatch on x is bitwise
// identical to the scalar oracle row by row.
func assertBatchMatchesSingle(t *testing.T, name string, l Layer, x *mat.Matrix, workers int) {
	t.Helper()
	y := l.ForwardBatch(x, workers)
	for r := 0; r < x.Rows; r++ {
		want := l.(refLayer).refForward(x.Row(r))
		got := y.Row(r)
		if len(got) != len(want) {
			t.Fatalf("%s: batch row %d len %d, single %d", name, r, len(got), len(want))
		}
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%s: batch row %d elem %d = %v, oracle = %v (not bitwise equal)",
				name, r, i, got[i], want[i])
		}
	}
}

func TestDenseForwardBatchBitwise(t *testing.T) {
	r := rng.New(1)
	for _, sh := range []struct{ in, out, batch int }{{3, 2, 1}, {33, 17, 5}, {159, 128, 64}} {
		d := NewDense(r, sh.in, sh.out)
		for _, workers := range []int{1, 0} {
			assertBatchMatchesSingle(t, "Dense", d, randomBatch(r, sh.batch, sh.in), workers)
		}
	}
}

// TestConv1DForwardBatchBitwise runs the paper's shape (kernel 4, stride 1:
// mat.Conv4To's vector kernel, at output lengths with and without a ragged
// tail) and its neighbours, which must stay on convFilterRow's loop — four
// taps at stride two, three and five at stride one: the kernel would read
// the wrong window or the wrong number of taps, and the scalar oracle would
// show it.
func TestConv1DForwardBatchBitwise(t *testing.T) {
	r := rng.New(2)
	for _, sh := range []struct{ inLen, filters, kernel, stride, batch int }{
		{8, 3, 4, 1, 1}, {28, 128, 4, 1, 33}, {14, 16, 4, 1, 7}, {5, 2, 4, 1, 3},
		{14, 16, 4, 2, 7}, {14, 16, 3, 1, 7}, {14, 16, 5, 1, 7},
	} {
		c := NewConv1D(r, sh.inLen, sh.filters, sh.kernel, sh.stride)
		assertBatchMatchesSingle(t, "Conv1D", c, randomBatch(r, sh.batch, sh.inLen), 1)
	}
}

func TestReLUAndSplitForwardBatchBitwise(t *testing.T) {
	r := rng.New(3)
	for _, batch := range seamBatches {
		assertBatchMatchesSingle(t, "ReLU", NewReLU(), randomBatch(r, batch, 21), 1)
	}
	const head, static = 14, 6
	for _, width := range paperWidths {
		for _, sh := range frontShapes {
			s := newFront(r, head, width, sh.kernel, sh.stride)
			for _, batch := range seamBatches {
				name := fmt.Sprintf("Split width=%d kernel=%d stride=%d batch=%d", width, sh.kernel, sh.stride, batch)
				assertBatchMatchesSingle(t, name, s, randomBatch(r, batch, head+static), 1)
			}
		}
	}
}

func TestNetworkForwardBatchBitwise(t *testing.T) {
	r := rng.New(4)
	head := 28
	front := NewNetwork(NewConv1D(r, head, 32, 4, 1), NewReLU())
	concat := front.OutDim(head) + 6
	n := NewNetwork(
		NewSplit(head, front),
		NewDense(r, concat, 64),
		NewReLU(),
		NewDense(r, 64, 3),
	)
	// Ragged re-use: smaller batches after a larger one must still match,
	// down to the one row a one-off decision forwards.
	for _, rows := range []int{57, 3, 1} {
		x := randomBatch(r, rows, head+6)
		y := n.ForwardBatch(x, 1)
		for row := 0; row < x.Rows; row++ {
			want := n.refForward(x.Row(row))
			if i, ok := sameBits(y.Row(row), want); !ok {
				t.Fatalf("Network (%d rows): row %d elem %d batch %v != oracle %v", rows, row, i, y.Row(row)[i], want[i])
			}
		}
	}
}

func TestNetworkForwardBatchSteadyStateAllocFree(t *testing.T) {
	r := rng.New(5)
	head := 14
	front := NewNetwork(NewConv1D(r, head, 16, 4, 1), NewReLU())
	n := NewNetwork(
		NewSplit(head, front),
		NewDense(r, front.OutDim(head)+6, 32),
		NewReLU(),
		NewDense(r, 32, 3),
	)
	x := randomBatch(r, 64, head+6)
	n.ForwardBatch(x, 1) // warm the scratch buffers
	allocs := testing.AllocsPerRun(10, func() { n.ForwardBatch(x, 1) })
	if allocs != 0 {
		t.Fatalf("steady-state ForwardBatch allocates %.0f times per call, want 0", allocs)
	}
}

// TestRectifierSpecialValues pins the rectifier's semantics — `v > 0 ? v : 0`
// — on the values where a branch-free formulation can go wrong, and checks
// that the batched spans and the fused front-end agree bit for bit with the
// scalar oracle (a plain comparison), which is checked against the table
// too. A mask taken from the sign bit alone would
// pass a positive NaN through; one that forgot the zero would pass the
// gradient at +0.
func TestRectifierSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const dy = 2.5
	cases := []struct {
		name   string
		x      float64
		y, dxv float64 // expected output and input gradient for an output gradient of dy
	}{
		{"+0", 0, 0, 0},
		{"-0", negZero, 0, 0},
		{"smallest positive subnormal", math.Float64frombits(1), math.Float64frombits(1), dy},
		{"smallest negative subnormal", math.Float64frombits(1 | 1<<63), 0, 0},
		{"+1", 1, 1, dy},
		{"-1", -1, 0, 0},
		{"largest finite", math.MaxFloat64, math.MaxFloat64, dy},
		{"+Inf", math.Inf(1), math.Inf(1), dy},
		{"-Inf", math.Inf(-1), 0, 0},
		{"positive quiet NaN", math.Float64frombits(0x7FF8000000000001), 0, 0},
		{"negative quiet NaN", math.Float64frombits(0xFFF8000000000001), 0, 0},
		{"positive signalling NaN", math.Float64frombits(0x7FF0000000000001), 0, 0},
		{"all ones", math.Float64frombits(^uint64(0)), 0, 0},
	}
	// Enough rows to run the batched loops well past their first element.
	const rows = 3
	n := len(cases)
	x, g := mat.New(rows, n), mat.New(rows, n)
	for r := 0; r < rows; r++ {
		for i, c := range cases {
			x.Row(r)[i] = c.x
			g.Row(r)[i] = dy
		}
	}
	check := func(impl string, y, dx []float64) {
		t.Helper()
		for i, c := range cases {
			if math.Float64bits(y[i]) != math.Float64bits(c.y) {
				t.Errorf("%s forward(%s) = %#x, want %#x", impl, c.name, math.Float64bits(y[i]), math.Float64bits(c.y))
			}
			if math.Float64bits(dx[i]) != math.Float64bits(c.dxv) {
				t.Errorf("%s backward(%s) = %#x, want %#x", impl, c.name, math.Float64bits(dx[i]), math.Float64bits(c.dxv))
			}
		}
	}

	relu := NewReLU()
	check("ReLU oracle", relu.refForward(x.Row(0)), relu.refBackward(x.Row(0), g.Row(0)))
	by := relu.ForwardBatch(x, 1)
	bdx := relu.BackwardBatch(g, 1)
	for r := 0; r < rows; r++ {
		check("ReLU batched", by.Row(r), bdx.Row(r))
	}

	// The front-end with one filter of one tap: weight 1 and bias -0 make the
	// response -0 + 1·x, which is x to the bit (a +0 bias would turn -0 into
	// +0 before the rectifier saw it), and the window gradient 0 + g·1.
	conv := NewConv1D(rng.New(1), n, 1, 1, 1)
	conv.w.Value[0], conv.b.Value[0] = 1, negZero
	front := NewSplit(n, NewNetwork(conv, NewReLU()))
	check("front-end oracle", front.refForward(x.Row(0)), front.refBackward(x.Row(0), g.Row(0)))
	by = front.ForwardBatch(x, 1)
	bdx = front.BackwardBatch(g, 1)
	for r := 0; r < rows; r++ {
		check("front-end batched", by.Row(r), bdx.Row(r))
	}
}
