// Package forecast implements the ARIMA time-series model the paper uses
// for request-frequency prediction (§3.1, Fig. 4): fit on the first two
// months of daily frequencies, predict the next 7 days.
//
// Estimation is the Hannan–Rissanen two-stage procedure: a long
// autoregression estimates the innovation sequence, then ordinary least
// squares regresses the (differenced) series on its own lags and the lagged
// innovations. OLS lives in internal/mat; no iterative likelihood machinery
// is needed at the accuracy level the paper's experiment requires.
package forecast

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"minicost/internal/mat"
)

// Model is a fitted ARIMA(p,d,q) model with intercept.
type Model struct {
	P, D, Q   int
	Phi       []float64 // AR coefficients, Phi[i] multiplies w_{t-1-i}
	Theta     []float64 // MA coefficients, Theta[j] multiplies e_{t-1-j}
	Intercept float64

	series []float64 // original series (training data)
	w      []float64 // differenced series
	resid  []float64 // innovations aligned with w (resid[t] for w[t])
}

// longARWindow bounds the order of the stage-1 long autoregression.
const longARWindow = 20

// Fit estimates an ARIMA(p,d,q) on series. It requires enough observations
// for the two regression stages; as a rule of thumb
// len(series) >= d + p + q + longAR + 10.
func Fit(series []float64, p, d, q int) (*Model, error) {
	if p < 0 || d < 0 || q < 0 {
		return nil, fmt.Errorf("forecast: negative order (%d,%d,%d)", p, d, q)
	}
	if p == 0 && q == 0 {
		return nil, errors.New("forecast: p and q cannot both be zero")
	}
	for _, v := range series {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("forecast: series contains NaN/Inf")
		}
	}
	w := Difference(series, d)
	m := &Model{P: p, D: d, Q: q, series: append([]float64(nil), series...), w: w}

	longAR := p + q + 3
	if longAR > longARWindow {
		longAR = longARWindow
	}
	minLen := max(p, longAR+q) + max(p+q+2, 8)
	if len(w) < minLen {
		return nil, fmt.Errorf("forecast: need >= %d differenced observations for ARIMA(%d,%d,%d), have %d",
			minLen, p, d, q, len(w))
	}

	// Stage 1: innovations. For q == 0 they are unused; otherwise estimate a
	// long AR and keep its residuals as proxies for the true innovations.
	resid := make([]float64, len(w))
	if q > 0 {
		arPhi, arC, err := fitAR(w, longAR)
		if err != nil {
			return nil, err
		}
		for t := longAR; t < len(w); t++ {
			pred := arC
			for i := 0; i < longAR; i++ {
				pred += arPhi[i] * w[t-1-i]
			}
			resid[t] = w[t] - pred
		}
	}

	// Stage 2: regress w_t on [1, w_{t-1..t-p}, e_{t-1..t-q}].
	start := max(p, q)
	if q > 0 {
		start = max(start, longAR+q)
	}
	rows := len(w) - start
	x := mat.New(rows, 1+p+q)
	y := make([]float64, rows)
	for r := 0; r < rows; r++ {
		t := start + r
		y[r] = w[t]
		x.Set(r, 0, 1)
		for i := 0; i < p; i++ {
			x.Set(r, 1+i, w[t-1-i])
		}
		for j := 0; j < q; j++ {
			x.Set(r, 1+p+j, resid[t-1-j])
		}
	}
	beta, err := mat.LeastSquares(x, y)
	if err != nil {
		return nil, fmt.Errorf("forecast: stage-2 regression: %w", err)
	}
	m.Intercept = beta[0]
	m.Phi = append([]float64(nil), beta[1:1+p]...)
	m.Theta = append([]float64(nil), beta[1+p:]...)

	// Final residuals under the fitted model (used for forecasting MA terms).
	m.resid = make([]float64, len(w))
	for t := start; t < len(w); t++ {
		pred := m.Intercept
		for i := 0; i < p && t-1-i >= 0; i++ {
			pred += m.Phi[i] * w[t-1-i]
		}
		for j := 0; j < q && t-1-j >= 0; j++ {
			pred += m.Theta[j] * m.resid[t-1-j]
		}
		m.resid[t] = w[t] - pred
	}
	return m, nil
}

// fitAR estimates an AR(k) with intercept by OLS, returning (phi, intercept).
func fitAR(w []float64, k int) ([]float64, float64, error) {
	rows := len(w) - k
	if rows < k+2 {
		return nil, 0, fmt.Errorf("forecast: series too short for AR(%d)", k)
	}
	x := mat.New(rows, k+1)
	y := make([]float64, rows)
	for r := 0; r < rows; r++ {
		t := k + r
		y[r] = w[t]
		x.Set(r, 0, 1)
		for i := 0; i < k; i++ {
			x.Set(r, 1+i, w[t-1-i])
		}
	}
	beta, err := mat.LeastSquares(x, y)
	if err != nil {
		return nil, 0, fmt.Errorf("forecast: long-AR regression: %w", err)
	}
	return beta[1:], beta[0], nil
}

// Difference applies d-th order differencing.
func Difference(series []float64, d int) []float64 {
	w := append([]float64(nil), series...)
	for k := 0; k < d; k++ {
		if len(w) < 2 {
			return nil
		}
		next := make([]float64, len(w)-1)
		for i := range next {
			next[i] = w[i+1] - w[i]
		}
		w = next
	}
	return w
}

// Forecast predicts the next h values of the original series. MA terms use
// the fitted innovations for known lags and zero for future ones; the
// differenced forecasts are re-integrated against the training series tail.
func (m *Model) Forecast(h int) []float64 {
	if h <= 0 {
		return nil
	}
	// Extended differenced series and residuals.
	w := append(append([]float64(nil), m.w...), make([]float64, h)...)
	e := append(append([]float64(nil), m.resid...), make([]float64, h)...)
	n := len(m.w)
	for s := 0; s < h; s++ {
		t := n + s
		pred := m.Intercept
		for i := 0; i < m.P; i++ {
			if t-1-i >= 0 {
				pred += m.Phi[i] * w[t-1-i]
			}
		}
		for j := 0; j < m.Q; j++ {
			if t-1-j >= 0 {
				pred += m.Theta[j] * e[t-1-j]
			}
		}
		w[t] = pred
		e[t] = 0
	}

	// Re-integrate d times. tails[k] is the last value of the k-times
	// differenced training series.
	tails := make([]float64, m.D)
	cur := m.series
	for k := 0; k < m.D; k++ {
		tails[k] = cur[len(cur)-1]
		cur = Difference(cur, 1)
	}
	out := append([]float64(nil), w[n:]...)
	for k := m.D - 1; k >= 0; k-- {
		acc := tails[k]
		for i := range out {
			acc += out[i]
			out[i] = acc
		}
	}
	return out
}

// Percentile returns the q-th percentile (q in [0,100]) of xs by linear
// interpolation; it sorts a copy.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
