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

// naiveMul is the textbook triple loop used as an oracle for Mul.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for _, shape := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {17, 31, 13}, {64, 64, 64}, {100, 3, 100}} {
		a := randomMatrix(r, shape[0], shape[1])
		b := randomMatrix(r, shape[1], shape[2])
		got, want := Mul(a, b), naiveMul(a, b)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-9) {
				t.Fatalf("shape %v: Mul mismatch at %d: %v vs %v", shape, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulLargeTriggersParallelPath(t *testing.T) {
	r := rng.New(2)
	a := randomMatrix(r, 80, 90) // 80*90*70 > 1<<16 → parallel path
	b := randomMatrix(r, 90, 70)
	got, want := Mul(a, b), naiveMul(a, b)
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-8) {
			t.Fatalf("parallel Mul mismatch at %d", i)
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched shapes did not panic")
		}
	}()
	Mul(New(2, 3), New(4, 2))
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(3)
	a := randomMatrix(r, 7, 11)
	b := a.T().T()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("T∘T is not identity")
		}
	}
	if got := a.T().At(3, 5); got != a.At(5, 3) {
		t.Fatal("transpose element mismatch")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	r := rng.New(4)
	a := randomMatrix(r, 9, 6)
	x := make([]float64, 6)
	for i := range x {
		x[i] = r.Float64()
	}
	xm := New(6, 1)
	copy(xm.Data, x)
	want := Mul(a, xm)
	got := MulVec(a, x)
	for i := range got {
		if !almostEq(got[i], want.Data[i], 1e-12) {
			t.Fatal("MulVec mismatch")
		}
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{1, 2, 5, 20} {
		// Build SPD a = b·bᵀ + n·I.
		b := randomMatrix(r, n, n)
		a := Mul(b, b.T())
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := Mul(l, l.T())
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
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
	if _, err := Cholesky(New(2, 3)); err == nil {
		t.Fatal("Cholesky accepted a non-square matrix")
	}
}

func TestSolveRoundTrip(t *testing.T) {
	r := rng.New(6)
	n := 12
	b := randomMatrix(r, n, n)
	a := Mul(b, b.T())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = r.NormalMS(0, 2)
	}
	rhs := MulVec(a, want)
	got, err := Solve(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !almostEq(got[i], want[i], 1e-7) {
			t.Fatalf("Solve x[%d]=%v want %v", i, got[i], want[i])
		}
	}
}

// dot is the inner product of equal-length vectors.
func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
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
		if !almostEq(pred, y[i], 1e-2*math.Abs(y[i])+1e-2) {
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
	// (A·B)·C == A·(B·C) within float tolerance, for random small matrices.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randomMatrix(r, 4, 3)
		b := randomMatrix(r, 3, 5)
		c := randomMatrix(r, 5, 2)
		l := Mul(Mul(a, b), c)
		rr := Mul(a, Mul(b, c))
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

func BenchmarkMul64(b *testing.B) {
	r := rng.New(1)
	x := randomMatrix(r, 64, 64)
	y := randomMatrix(r, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMul256Parallel(b *testing.B) {
	r := rng.New(1)
	x := randomMatrix(r, 256, 256)
	y := randomMatrix(r, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkCholesky64(b *testing.B) {
	r := rng.New(1)
	m := randomMatrix(r, 64, 64)
	a := Mul(m, m.T())
	for i := 0; i < 64; i++ {
		a.Set(i, i, a.At(i, i)+64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
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
