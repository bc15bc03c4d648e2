package forecast

import (
	"math"
	"testing"

	"minicost/internal/rng"
)

// genAR simulates x_t = c + Σ phi_i x_{t-i} + e_t with Gaussian noise.
func genAR(r *rng.RNG, c float64, phi []float64, sigma float64, n int) []float64 {
	burn := 200
	x := make([]float64, n+burn)
	for t := len(phi); t < len(x); t++ {
		v := c + r.NormalMS(0, sigma)
		for i, p := range phi {
			v += p * x[t-1-i]
		}
		x[t] = v
	}
	return x[burn:]
}

func TestFitRecoversAR2(t *testing.T) {
	r := rng.New(1)
	phi := []float64{0.6, -0.3}
	series := genAR(r, 2.0, phi, 0.5, 3000)
	m, err := Fit(series, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range phi {
		if math.Abs(m.Phi[i]-phi[i]) > 0.05 {
			t.Fatalf("phi[%d] = %v, want %v", i, m.Phi[i], phi[i])
		}
	}
	// Implied mean c/(1-Σphi) should match the sample mean.
	wantMean := 2.0 / (1 - 0.6 + 0.3)
	impliedMean := m.Intercept / (1 - m.Phi[0] - m.Phi[1])
	if math.Abs(impliedMean-wantMean) > 0.2 {
		t.Fatalf("implied mean %v, want %v", impliedMean, wantMean)
	}
}

func TestFitRecoversMA1Sign(t *testing.T) {
	// Simulate an MA(1): x_t = e_t + 0.7 e_{t-1}. Hannan–Rissanen should
	// recover theta with the right sign and rough magnitude.
	r := rng.New(2)
	n := 5000
	e := make([]float64, n+1)
	for i := range e {
		e[i] = r.NormalMS(0, 1)
	}
	x := make([]float64, n)
	for t := 0; t < n; t++ {
		x[t] = e[t+1] + 0.7*e[t]
	}
	m, err := Fit(x, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Theta[0]-0.7) > 0.15 {
		t.Fatalf("theta = %v, want ~0.7", m.Theta[0])
	}
}

func TestForecastConstantSeries(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = 42
	}
	m, err := Fit(series, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Forecast(7) {
		if math.Abs(v-42) > 1 {
			t.Fatalf("forecast[%d] = %v, want ~42", i, v)
		}
	}
}

func TestForecastLinearTrendWithDifferencing(t *testing.T) {
	// x_t = 3t + 10: first differences are constant 3, so ARIMA(p,1,0)
	// should extrapolate the trend almost exactly.
	series := make([]float64, 80)
	for i := range series {
		series[i] = 3*float64(i) + 10
	}
	m, err := Fit(series, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc := m.Forecast(5)
	for i, v := range fc {
		want := 3*float64(80+i) + 10
		if math.Abs(v-want) > 0.5 {
			t.Fatalf("forecast[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestForecastWeeklyCycleWithAR7(t *testing.T) {
	// A seasonal series with period 7 should be predicted well by AR(7).
	n := 200
	series := make([]float64, n)
	r := rng.New(3)
	for i := range series {
		series[i] = 100 + 20*math.Sin(2*math.Pi*float64(i)/7) + r.NormalMS(0, 1)
	}
	m, err := Fit(series, 7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc := m.Forecast(7)
	for i, v := range fc {
		want := 100 + 20*math.Sin(2*math.Pi*float64(n+i)/7)
		if math.Abs(v-want) > 8 {
			t.Fatalf("forecast[%d] = %v, want ~%v", i, v, want)
		}
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	ok := make([]float64, 100)
	for i := range ok {
		ok[i] = float64(i % 5)
	}
	if _, err := Fit(ok, -1, 0, 0); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := Fit(ok, 0, 0, 0); err == nil {
		t.Error("p=q=0 accepted")
	}
	if _, err := Fit(ok[:5], 2, 0, 1); err == nil {
		t.Error("too-short series accepted")
	}
	bad := append([]float64(nil), ok...)
	bad[3] = math.NaN()
	if _, err := Fit(bad, 2, 0, 0); err == nil {
		t.Error("NaN series accepted")
	}
}

func TestDifference(t *testing.T) {
	x := []float64{1, 4, 9, 16, 25}
	d1 := Difference(x, 1)
	want1 := []float64{3, 5, 7, 9}
	for i := range want1 {
		if d1[i] != want1[i] {
			t.Fatalf("d1 = %v", d1)
		}
	}
	d2 := Difference(x, 2)
	for i, want := range []float64{2, 2, 2} {
		if d2[i] != want {
			t.Fatalf("d2 = %v", d2)
		}
	}
	if Difference(x, 0)[0] != 1 {
		t.Fatal("d0 should copy")
	}
	if Difference([]float64{1}, 1) != nil {
		t.Fatal("over-differencing should return nil")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("p25 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

func TestPredictionHarderForVolatileSeries(t *testing.T) {
	// The qualitative Fig. 4 claim: ARIMA's relative error is larger for
	// high-variability series than for stationary ones.
	r := rng.New(5)
	stableErr, volErr := 0.0, 0.0
	n := 40
	for trial := 0; trial < n; trial++ {
		stable := make([]float64, 70)
		volatile := make([]float64, 70)
		base := 100.0
		burst := 1.0
		for i := range stable {
			stable[i] = base * r.LogNormal(-0.0008, 0.04)
			if r.Float64() < 0.07 {
				burst = 4
			} else if r.Float64() < 0.4 {
				burst = 1
			}
			volatile[i] = base * burst * r.LogNormal(-0.18, 0.6)
		}
		for _, pair := range []struct {
			series []float64
			sink   *float64
		}{{stable, &stableErr}, {volatile, &volErr}} {
			m, err := Fit(pair.series[:63], 7, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			fc := m.Forecast(7)
			for i := 0; i < 7; i++ {
				// The paper's (true − predicted)/true; both series are
				// strictly positive.
				truth := pair.series[63+i]
				*pair.sink += math.Abs((truth - fc[i]) / truth)
			}
		}
	}
	if volErr <= stableErr*1.5 {
		t.Fatalf("volatile error %v not clearly larger than stable %v", volErr, stableErr)
	}
}

func BenchmarkFitARIMA711(b *testing.B) {
	r := rng.New(1)
	series := genAR(r, 1, []float64{0.5, 0.2}, 1, 63)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(series, 7, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForecast7(b *testing.B) {
	r := rng.New(1)
	series := genAR(r, 1, []float64{0.5, 0.2}, 1, 63)
	m, err := Fit(series, 7, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forecast(7)
	}
}
