package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// testLab builds a lab sized for tests and trains the agent once.
var sharedLab *Lab

func lab(t testing.TB) *Lab {
	t.Helper()
	if sharedLab != nil {
		return sharedLab
	}
	cfg := Quick()
	cfg.Files = 250
	cfg.TrainSteps = 350000
	l, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.TrainAgent(); err != nil {
		t.Fatal(err)
	}
	sharedLab = l
	return l
}

func TestFig2Shape(t *testing.T) {
	l := lab(t)
	r := l.Fig2()
	total := 0
	for _, c := range r.Hist {
		total += c
	}
	if total != l.Trace.NumFiles() {
		t.Fatalf("histogram covers %d of %d files", total, l.Trace.NumFiles())
	}
	// Paper shape: the stationary bucket dominates, the >0.8 bucket is thin.
	if r.Shares[0] < 0.6 {
		t.Fatalf("stationary share %v", r.Shares[0])
	}
	if r.Shares[4] > 0.1 {
		t.Fatalf("volatile share %v", r.Shares[4])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "0-0.1") {
		t.Fatal("render missing bucket label")
	}
}

func TestFig3Shape(t *testing.T) {
	l := lab(t)
	r, err := l.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// Savings must be non-negative everywhere and the per-file saving must
	// grow with volatility (the paper's headline observation).
	for b := 0; b < trace.NumBuckets; b++ {
		if r.SavedPerDay[b] < 0 {
			t.Fatalf("negative saving in bucket %d", b)
		}
	}
	if r.Files[4] > 0 && r.Files[0] > 0 && r.PerFilePerDay[4] <= r.PerFilePerDay[0] {
		t.Fatalf("per-file saving should grow with volatility: bucket0=%v bucket4=%v",
			r.PerFilePerDay[0], r.PerFilePerDay[4])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFig4Shape(t *testing.T) {
	l := lab(t)
	r, err := l.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// Error spread must widen with volatility (Fig. 4's point): the most
	// volatile bucket's p99-p1 spread exceeds the stationary bucket's.
	if r.Samples[0] == 0 || r.Samples[4] == 0 {
		t.Skip("empty bucket in quick trace")
	}
	if r.Spread(4) <= r.Spread(0) {
		t.Fatalf("prediction spread should grow with volatility: %v vs %v", r.Spread(0), r.Spread(4))
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFig7Ordering(t *testing.T) {
	l := lab(t)
	r, err := l.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Days) - 1
	cold := r.Costs["cold"][last]
	hot := r.Costs["hot"][last]
	greedy := r.Costs["greedy"][last]
	mini := r.Costs["minicost"][last]
	opt := r.Costs["optimal"][last]
	// The paper's ordering: Cold > Hot > Greedy > MiniCost > Optimal. The
	// RL agent's position depends on training; we demand the hard relations
	// and that MiniCost lands strictly below Hot and at/above Optimal.
	if !(cold > hot) {
		t.Fatalf("cold %v should exceed hot %v", cold, hot)
	}
	if !(hot > greedy) {
		t.Fatalf("hot %v should exceed greedy %v", hot, greedy)
	}
	if !(opt <= greedy && opt <= mini && opt <= hot) {
		t.Fatalf("optimal %v is not the lower bound", opt)
	}
	if !(mini < hot) {
		t.Fatalf("minicost %v should beat hot %v", mini, hot)
	}
	// Costs must grow with the horizon.
	for _, m := range MethodNames {
		series := r.Costs[m]
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1] {
				t.Fatalf("%s cost decreased with horizon: %v", m, series)
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	t.Logf("\n%s", buf.String())
}

func TestFig8Shape(t *testing.T) {
	l := lab(t)
	r, err := l.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range MethodNames {
		if _, ok := r.Costs[m]; !ok {
			t.Fatalf("method %s missing", m)
		}
	}
	// Optimal is the per-bucket lower bound too (per-file separability).
	opt := r.Costs["optimal"]
	for b := 0; b < trace.NumBuckets; b++ {
		if r.Files[b] == 0 {
			continue
		}
		for _, m := range MethodNames {
			if r.Costs[m][b] < opt[b]-1e-9 {
				t.Fatalf("bucket %d: %s %v beats optimal %v", b, m, r.Costs[m][b], opt[b])
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	t.Logf("\n%s", buf.String())
}

func TestFig12Overhead(t *testing.T) {
	l := lab(t)
	r, err := l.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	// Static policies must be far cheaper than the deciding ones, and all
	// measurements positive.
	for _, name := range []string{"hot", "cold", "greedy", "minicost"} {
		if r.MeasuredPerDay[name] < 0 {
			t.Fatalf("%s negative time", name)
		}
	}
	if r.MeasuredPerDay["minicost"] <= r.MeasuredPerDay["hot"] {
		t.Fatalf("minicost %v should cost more compute than hot %v",
			r.MeasuredPerDay["minicost"], r.MeasuredPerDay["hot"])
	}
	// The paper's serving-time claim: < 1 ms per file per day.
	perFileMS := r.MeasuredPerDay["minicost"] / float64(r.Files) * 1000
	if perFileMS > 1.0 {
		t.Fatalf("minicost decision %.4f ms/file/day exceeds the paper's <1ms", perFileMS)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	t.Logf("\n%s", buf.String())
}

// TestFig13Enhancement: MiniCost-w/E bills the minicost plan with
// Algorithm 2's replica lifetimes, so it never costs more than minicost and
// equals it bit for bit at the 7-day horizon, before the first evaluation
// (day 7) can create a replica. The shared 250-file lab aggregates no
// group; Quick's 300-file lab with a seeded random agent must aggregate
// one.
func TestFig13Enhancement(t *testing.T) {
	quick := func(t testing.TB) *Lab {
		cfg := Quick()
		l, err := NewLab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l.SetAgent(rl.NewAgent(cfg.Net, cfg.Net.BuildActor(rng.New(7))))
		return l
	}
	for _, tc := range []struct {
		name      string
		lab       func(testing.TB) *Lab
		aggregate bool
	}{
		{"shared lab", lab, false},
		{"quick, random agent", quick, true},
	} {
		r, err := tc.lab(t).Fig13(0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		t.Logf("%s:\n%s", tc.name, buf.String())
		if tc.aggregate && r.AggregatedGroups == 0 {
			t.Fatalf("%s: no group aggregated; the case needs a lab the enhancement acts on", tc.name)
		}
		for i, d := range r.Days {
			mini, withE := r.Costs["minicost"][i], r.Costs["minicost-w/E"][i]
			if withE > mini {
				t.Fatalf("%s, %d days: enhancement raised cost %v -> %v", tc.name, d, mini, withE)
			}
			if d == 7 && math.Float64bits(withE) != math.Float64bits(mini) {
				t.Fatalf("%s, 7 days: w/E %.17g != minicost %.17g before any replica exists", tc.name, withE, mini)
			}
		}
	}
}

// TestFig13RefusesNegativePsi: a negative Ψ is an error from Fig13, raised
// before the agent trains.
func TestFig13RefusesNegativePsi(t *testing.T) {
	l, err := NewLab(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fig13(-1); err == nil {
		t.Fatal("Fig13 accepted psi -1")
	}
	if l.agent != nil {
		t.Fatal("Fig13 trained the agent before refusing psi -1")
	}
	if _, err := AggregationConfig(-1); err == nil {
		t.Fatal("AggregationConfig accepted psi -1")
	}
}

func TestCostBreakdownTable(t *testing.T) {
	l := lab(t)
	var buf bytes.Buffer
	if err := l.CostBreakdownTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "minicost") {
		t.Fatal("breakdown table missing minicost row")
	}
	t.Logf("\n%s", buf.String())
}

func TestFig9LearningRateSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	cfg := QuickLearningConfig()
	cfg.MaxSteps = 30000
	cfg.ChunkSteps = 5000
	r, err := Fig9(cfg, []float64{0.0001, 0.0028})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) != 2 {
		t.Fatal("wrong sweep size")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	t.Logf("\n%s", buf.String())
}

func TestFig10EpsilonSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	cfg := QuickLearningConfig()
	cfg.MaxSteps = 20000
	cfg.ChunkSteps = 5000
	r, err := Fig10(cfg, []float64{0.01, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range r.Epsilons {
		if math.IsNaN(r.FinalRate(eps)) {
			t.Fatalf("no curve for eps %v", eps)
		}
		for _, rate := range r.Rates[eps] {
			if rate < 0 || rate > 1 {
				t.Fatalf("rate %v out of range", rate)
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	t.Logf("\n%s", buf.String())
}

func TestFig11WidthSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	cfg := QuickLearningConfig()
	cfg.MaxSteps = 15000
	cfg.ChunkSteps = 15000
	r, err := Fig11(cfg, []int{8, 32}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Mean) != 2 || len(r.Std) != 2 {
		t.Fatal("wrong result size")
	}
	for i := range r.Mean {
		if r.Mean[i] < 0 || r.Mean[i] > 1 || r.Std[i] < 0 {
			t.Fatalf("width %d: mean %v std %v", r.Widths[i], r.Mean[i], r.Std[i])
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	t.Logf("\n%s", buf.String())
}

// TestFig13RejectsShortTrace: a trace shorter than the first horizon is an
// error for Fig. 13 exactly as for Fig. 7, never an empty figure.
func TestFig13RejectsShortTrace(t *testing.T) {
	cfg := Quick()
	cfg.Days = 6
	l, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.SetAgent(rl.NewAgent(cfg.Net, cfg.Net.BuildActor(rng.New(7))))
	_, err7 := l.Fig7()
	if err7 == nil {
		t.Fatal("Fig7 accepted a 6-day trace")
	}
	r, err := l.Fig13(0)
	if err == nil {
		t.Fatalf("Fig13 accepted a 6-day trace: %+v", r)
	}
	if err.Error() != err7.Error() {
		t.Fatalf("Fig13 error %q, Fig7 error %q", err, err7)
	}
}
