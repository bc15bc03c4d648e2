// Package mat implements the dense linear algebra MiniCost needs: row-major
// float64 matrices, the (optionally parallel, SIMD-packed) GEMM kernels the
// network runs on, and ordinary least squares via normal equations on those
// kernels, solved by Cholesky factorization with Tikhonov fallback.
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

// ErrNotPositiveDefinite reports a failed Cholesky factorization.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// cholesky computes the lower-triangular L with L·Lᵀ = a for a symmetric
// positive-definite a. It reads only a's lower triangle. Here and in
// solveCholesky each product is rounded before it is subtracted: the solve
// shares no product with a kernel, so it keeps the textbook roundings.
func cholesky(a *Matrix) (*Matrix, error) {
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
				sum -= float64(li[k] * lj[k])
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

// solveCholesky solves a·x = b given a's Cholesky factor L (forward then
// backward substitution).
func solveCholesky(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("mat: solveCholesky dimension mismatch")
	}
	// Forward: L y = b
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*n:]
		for k := 0; k < i; k++ {
			s -= float64(row[k] * y[k])
		}
		y[i] = s / row[i]
	}
	// Backward: Lᵀ x = y
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l.At(k, i) * x[k])
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// LeastSquares solves min_beta ||X·beta - y||² via the normal equations
// XᵀX·beta = Xᵀy. If XᵀX is singular (collinear regressors), it retries with
// an escalating ridge penalty, which is the standard remedy for the
// near-collinear design matrices ARIMA fitting produces on flat series.
// Both products run on the engine's GEMM, MulTransBBiasTo: XᵀX as Xᵀ times
// Xᵀ transposed, Xᵀy against y as a one-row matrix. Each element is a
// k-sequential sum seeded with +0, the order a textbook product uses.
func LeastSquares(x *Matrix, y []float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("mat: LeastSquares rows %d != len(y) %d", x.Rows, len(y))
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("mat: underdetermined system %dx%d", x.Rows, x.Cols)
	}
	xt := TransposeParTo(nil, x, 1)
	xtx := MulTransBBiasTo(nil, xt, xt, nil, 1)
	xty := MulTransBBiasTo(nil, xt, &Matrix{Rows: 1, Cols: len(y), Data: y}, nil, 1).Data
	for _, ridge := range []float64{0, 1e-10, 1e-7, 1e-4, 1e-1} {
		a := xtx
		if ridge > 0 {
			a = xtx.Clone()
			// Scale the ridge by the diagonal magnitude so it is unitless.
			trace := 0.0
			for i := 0; i < a.Rows; i++ {
				trace += a.At(i, i)
			}
			lambda := float64(ridge * (trace/float64(a.Rows) + 1))
			for i := 0; i < a.Rows; i++ {
				a.Set(i, i, a.At(i, i)+lambda)
			}
		}
		if l, err := cholesky(a); err == nil {
			return solveCholesky(l, xty), nil
		}
	}
	return nil, ErrNotPositiveDefinite
}
