// Package mat implements the dense linear algebra MiniCost needs: row-major
// float64 matrices with (optionally parallel) multiplication, Cholesky
// factorization, triangular solves, and ordinary least squares via normal
// equations with Tikhonov fallback.
//
// The package is deliberately small — it exists to serve internal/forecast
// (ARIMA coefficient estimation) and internal/nn (layer math), not to be a
// general BLAS.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c]
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.Cols {
			panic(fmt.Sprintf("mat: ragged row %d: len %d want %d", r, len(row), m.Cols))
		}
		copy(m.Data[r*m.Cols:(r+1)*m.Cols], row)
	}
	return m
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set stores v at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// SliceRows points view at rows [lo, hi) of m, sharing m's backing array —
// the training engine uses it to run a batched pass over one
// lockstep block of a larger feature arena without copying rows out. view
// must be a caller-owned scratch matrix; its previous contents are dropped.
// The view's capacity is clipped to the window, so kernels cannot write past
// hi even through append-style reslicing.
func (m *Matrix) SliceRows(view *Matrix, lo, hi int) {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("mat: SliceRows [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	view.Rows, view.Cols = hi-lo, m.Cols
	view.Data = m.Data[lo*m.Cols : hi*m.Cols : hi*m.Cols]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		base := r * m.Cols
		for c := 0; c < m.Cols; c++ {
			out.Data[c*out.Cols+r] = m.Data[base+c]
		}
	}
	return out
}

// Mul returns a*b, parallelizing across rows of a when the product is large.
// It panics on a shape mismatch.
func Mul(a, b *Matrix) *Matrix { return MulTo(nil, a, b, 0) }

// MulVec returns a·x for a column vector x (len == a.Cols).
func MulVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d · %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for r := 0; r < a.Rows; r++ {
		row := a.Data[r*a.Cols : (r+1)*a.Cols]
		s := 0.0
		for c, v := range row {
			s += v * x[c]
		}
		out[r] = s
	}
	return out
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: Add shape mismatch")
	}
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Scale returns s*a.
func Scale(a *Matrix, s float64) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = s * v
	}
	return out
}

// ErrNotPositiveDefinite reports a failed Cholesky factorization.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular L with L·Lᵀ = a for a symmetric
// positive-definite a. It reads only a's lower triangle.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("mat: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			li := l.Data[i*n:]
			lj := l.Data[j*n:]
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves a·x = b given a's Cholesky factor L (forward then
// backward substitution).
func SolveCholesky(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("mat: SolveCholesky dimension mismatch")
	}
	// Forward: L y = b
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*n:]
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Backward: Lᵀ x = y
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// Solve solves the symmetric positive-definite system a·x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return SolveCholesky(l, b), nil
}

// LeastSquares solves min_beta ||X·beta - y||² via the normal equations
// XᵀX·beta = Xᵀy. If XᵀX is singular (collinear regressors), it retries with
// an escalating ridge penalty, which is the standard remedy for the
// near-collinear design matrices ARIMA fitting produces on flat series.
func LeastSquares(x *Matrix, y []float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("mat: LeastSquares rows %d != len(y) %d", x.Rows, len(y))
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("mat: underdetermined system %dx%d", x.Rows, x.Cols)
	}
	xt := x.T()
	xtx := Mul(xt, x)
	xty := MulVec(xt, y)
	for _, ridge := range []float64{0, 1e-10, 1e-7, 1e-4, 1e-1} {
		a := xtx
		if ridge > 0 {
			a = xtx.Clone()
			// Scale the ridge by the diagonal magnitude so it is unitless.
			trace := 0.0
			for i := 0; i < a.Rows; i++ {
				trace += a.At(i, i)
			}
			lambda := ridge * (trace/float64(a.Rows) + 1)
			for i := 0; i < a.Rows; i++ {
				a.Set(i, i, a.At(i, i)+lambda)
			}
		}
		if beta, err := Solve(a, xty); err == nil {
			return beta, nil
		}
	}
	return nil, ErrNotPositiveDefinite
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}
