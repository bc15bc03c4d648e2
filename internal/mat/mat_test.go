package mat

import (
	"math"
	"testing"
	"testing/quick"

	"minicost/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomMatrix(r *rng.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormalMS(0, 1)
	}
	return m
}

// transpose returns mᵀ as a new matrix: the textbook oracle TransposeTo
// and the packers are held to.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*out.Cols+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// naiveMul is the textbook triple loop a·b, the oracle product of these
// tests.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s = math.FMA(a.At(i, k), b.At(k, j), s)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// TestMulShapeMismatchPanics: the engine's GEMM refuses a shared-dimension
// or bias-length mismatch.
func TestMulShapeMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"shared dimension", func() { MulTransBBiasTo(nil, New(2, 3), New(4, 2), nil) }},
		{"bias length", func() { MulTransBBiasTo(nil, New(2, 3), New(4, 3), make([]float64, 3)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(3)
	a := randomMatrix(r, 7, 11)
	at := TransposeTo(nil, a)
	b := TransposeTo(nil, at)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("T∘T is not identity")
		}
	}
	if got := at.At(3, 5); got != a.At(5, 3) {
		t.Fatal("transpose element mismatch")
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{1, 2, 5, 20} {
		// Build SPD a = b·bᵀ + n·I.
		b := randomMatrix(r, n, n)
		a := naiveMul(b, transpose(b))
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		l, err := cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := naiveMul(l, transpose(l))
		for i := range a.Data {
			if !almostEq(rec.Data[i], a.Data[i], 1e-8) {
				t.Fatalf("n=%d: L·Lᵀ != A at %d", n, i)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if _, err := cholesky(a); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
	if _, err := cholesky(New(2, 3)); err == nil {
		t.Fatal("Cholesky accepted a non-square matrix")
	}
}

func TestSolveRoundTrip(t *testing.T) {
	r := rng.New(6)
	n := 12
	b := randomMatrix(r, n, n)
	a := naiveMul(b, transpose(b))
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	want := New(n, 1)
	for i := range want.Data {
		want.Data[i] = r.NormalMS(0, 2)
	}
	rhs := naiveMul(a, want).Data
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got := solveCholesky(l, rhs)
	for i := range got {
		if !almostEq(got[i], want.Data[i], 1e-7) {
			t.Fatalf("solve x[%d]=%v want %v", i, got[i], want.Data[i])
		}
	}
}

// dot is the inner product of equal-length vectors.
func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s = math.FMA(v, b[i], s)
	}
	return s
}

func TestLeastSquaresRecoversCoefficients(t *testing.T) {
	r := rng.New(7)
	n, p := 500, 4
	beta := []float64{2.5, -1.0, 0.5, 3.0}
	x := randomMatrix(r, n, p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = dot(x.Row(i), beta) + r.NormalMS(0, 0.01)
	}
	got, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range beta {
		if !almostEq(got[i], beta[i], 0.01) {
			t.Fatalf("beta[%d]=%v want %v", i, got[i], beta[i])
		}
	}
}

// TestLeastSquaresMatchesTextbookNormalEquations: LeastSquares on the
// engine's GEMM is bitwise the textbook route — XᵀX and Xᵀy by the triple
// loop, then the Cholesky solve — since both sum every element k-sequentially
// from +0.
func TestLeastSquaresMatchesTextbookNormalEquations(t *testing.T) {
	r := rng.New(8)
	for _, sh := range [][2]int{{9, 1}, {40, 3}, {120, 9}, {500, 4}} {
		x := randomMatrix(r, sh[0], sh[1])
		y := New(sh[0], 1)
		for i := range y.Data {
			y.Data[i] = r.NormalMS(0, 3)
		}
		// A zero column entry exercises the terms a zero-skipping product
		// would drop.
		x.Set(0, 0, 0)
		xt := transpose(x)
		l, err := cholesky(naiveMul(xt, x))
		if err != nil {
			t.Fatal(err)
		}
		want := solveCholesky(l, naiveMul(xt, y).Data)
		got, err := LeastSquares(x, y.Data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: beta[%d] = %v, textbook %v", sh, i, got[i], want[i])
			}
		}
	}
}

func TestLeastSquaresCollinearFallsBackToRidge(t *testing.T) {
	// Two identical columns: XᵀX singular; ridge must still return something
	// finite whose fit is good.
	n := 100
	x := New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i)/10 + 1
		x.Set(i, 0, v)
		x.Set(i, 1, v)
		y[i] = 3 * v
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pred := dot(x.Row(i), beta)
		if !almostEq(pred, y[i], float64(1e-2*math.Abs(y[i]))+1e-2) {
			t.Fatalf("ridge fit poor at %d: pred %v want %v (beta=%v)", i, pred, y[i], beta)
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	if _, err := LeastSquares(New(2, 5), []float64{1, 2}); err == nil {
		t.Fatal("underdetermined system accepted")
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	// (A·B)·C == A·(B·C) within float tolerance, for random small matrices,
	// on the engine's GEMM.
	mul := func(a, b *Matrix) *Matrix { return MulTransBBiasTo(nil, a, transpose(b), nil) }
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randomMatrix(r, 4, 3)
		b := randomMatrix(r, 3, 5)
		c := randomMatrix(r, 5, 2)
		l := mul(mul(a, b), c)
		rr := mul(a, mul(b, c))
		for i := range l.Data {
			if !almostEq(l.Data[i], rr.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCholesky64(b *testing.B) {
	r := rng.New(1)
	m := randomMatrix(r, 64, 64)
	a := naiveMul(m, transpose(m))
	for i := 0; i < 64; i++ {
		a.Set(i, i, a.At(i, i)+64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSliceRowsSharesStorage pins the view contract: a row window aliases
// the parent's backing array (writes through the view land in the parent),
// its capacity is clipped at the window end, and re-pointing an existing
// view allocates nothing.
func TestSliceRowsSharesStorage(t *testing.T) {
	r := rng.New(3)
	m := randomMatrix(r, 6, 4)
	var view Matrix
	m.SliceRows(&view, 2, 5)
	if view.Rows != 3 || view.Cols != 4 {
		t.Fatalf("view shape %dx%d, want 3x4", view.Rows, view.Cols)
	}
	for i := 0; i < view.Rows; i++ {
		for j := 0; j < view.Cols; j++ {
			if view.At(i, j) != m.At(i+2, j) {
				t.Fatalf("view(%d,%d) = %v, want %v", i, j, view.At(i, j), m.At(i+2, j))
			}
		}
	}
	view.Set(0, 0, 42)
	if m.At(2, 0) != 42 {
		t.Fatal("write through the view did not reach the parent")
	}
	if cap(view.Data) != len(view.Data) {
		t.Fatalf("view capacity %d not clipped to window length %d", cap(view.Data), len(view.Data))
	}
	allocs := testing.AllocsPerRun(10, func() { m.SliceRows(&view, 0, 3) })
	if allocs != 0 {
		t.Fatalf("SliceRows allocates %.0f/op, want 0", allocs)
	}
}

// TestSliceRowsOutOfRangePanics covers the window validation.
func TestSliceRowsOutOfRangePanics(t *testing.T) {
	m := New(4, 2)
	var view Matrix
	for _, w := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SliceRows(%d,%d) did not panic", w[0], w[1])
				}
			}()
			m.SliceRows(&view, w[0], w[1])
		}()
	}
}
