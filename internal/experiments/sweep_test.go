package experiments

import (
	"testing"

	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// requireSameSeries asserts two figure series maps are bitwise identical.
func requireSameSeries(t *testing.T, label string, days []int, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d methods, reference has %d", label, len(got), len(want))
	}
	for name, ref := range want {
		series, ok := got[name]
		if !ok {
			t.Fatalf("%s: method %s missing", label, name)
		}
		if len(series) != len(ref) {
			t.Fatalf("%s %s: %d points, reference has %d", label, name, len(series), len(ref))
		}
		for i := range ref {
			if series[i] != ref[i] {
				t.Fatalf("%s %s at %d days: swept %v != per-window %v (diff %g)",
					label, name, days[i], series[i], ref[i], series[i]-ref[i])
			}
		}
	}
}

// TestFig7MatchesPerWindowReference: the swept Fig. 7 is bitwise identical
// to re-assigning and re-pricing every method at every horizon.
func TestFig7MatchesPerWindowReference(t *testing.T) {
	l := lab(t)
	l.ResetEvalCache()
	swept, err := l.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := l.Fig7Reference()
	if err != nil {
		t.Fatal(err)
	}
	if len(swept.Days) != len(ref.Days) {
		t.Fatalf("horizons %v != %v", swept.Days, ref.Days)
	}
	requireSameSeries(t, "fig7", swept.Days, swept.Costs, ref.Costs)
}

// TestFig8MatchesPerWindowReference: per-file bills read off the memoized
// cumulative matrices equal a fresh Assign + TraceCost pass bitwise.
func TestFig8MatchesPerWindowReference(t *testing.T) {
	l := lab(t)
	swept, err := l.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	tr := l.Test
	assigners, err := l.assigners(true)
	if err != nil {
		t.Fatal(err)
	}
	buckets := make([]int, tr.NumFiles())
	for i := range buckets {
		buckets[i] = trace.BucketOf(trace.SigmaCV(tr.Reads[i]))
	}
	init := make([]pricing.Tier, tr.NumFiles())
	for i := range init {
		init[i] = pricing.Hot
	}
	for _, a := range assigners {
		asg, err := a.Assign(tr, l.Model, pricing.Hot)
		if err != nil {
			t.Fatal(err)
		}
		bds, err := l.Model.TraceCost(tr, asg, init, l.Cfg.Workers)
		if err != nil {
			t.Fatal(err)
		}
		var want [trace.NumBuckets]float64
		for i := range buckets {
			want[buckets[i]] += bds[i].Total() / float64(tr.Days)
		}
		name := canonicalName(a)
		if swept.Costs[name] != want {
			t.Fatalf("fig8 %s: swept %v != reference %v", name, swept.Costs[name], want)
		}
	}
}

// TestFig13MatchesPerWindowReference: the swept enhancement figure equals
// the per-window oracle bitwise.
func TestFig13MatchesPerWindowReference(t *testing.T) {
	l := lab(t)
	swept, err := l.Fig13(0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := l.Fig13Reference(0)
	if err != nil {
		t.Fatal(err)
	}
	if swept.AggregatedGroups != ref.AggregatedGroups {
		t.Fatalf("aggregated groups %d != %d", swept.AggregatedGroups, ref.AggregatedGroups)
	}
	if len(swept.Days) != len(ref.Days) {
		t.Fatalf("horizons %v != %v", swept.Days, ref.Days)
	}
	requireSameSeries(t, "fig13", swept.Days, swept.Costs, ref.Costs)
}

// TestBreakdownMatchesPerWindowReference: the memoized componentwise totals
// behind CostBreakdownTable equal the per-window evalCost path bitwise.
func TestBreakdownMatchesPerWindowReference(t *testing.T) {
	l := lab(t)
	names, evals, err := l.methodEvals(l.Test.Days)
	if err != nil {
		t.Fatal(err)
	}
	assigners, err := l.assigners(true)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range assigners {
		want, err := l.evalCost(a, l.Test)
		if err != nil {
			t.Fatal(err)
		}
		if got := evals[names[i]].totalBreakdown(); got != want {
			t.Fatalf("%s: swept breakdown %+v != reference %+v", names[i], got, want)
		}
	}
}

// TestCanonicalNameCollisionRejected: two assigners sharing a paper label
// cannot silently merge into one series.
func TestCanonicalNameCollisionRejected(t *testing.T) {
	if _, err := canonicalNames([]policy.Assigner{policy.Greedy{}, policy.Greedy{Oracle: true}}); err == nil {
		t.Fatal("duplicate canonical name accepted")
	}
	if _, err := canonicalNames([]policy.Assigner{policy.Greedy{}, policy.Optimal{}}); err != nil {
		t.Fatalf("distinct names rejected: %v", err)
	}
}

// TestFig7FullConfigMatchesReference repeats the Fig. 7 equivalence at the
// paper-shaped Full configuration. The agent's weights don't affect the
// engines' equivalence, so a randomly initialised agent stands in for the
// 400k-step trained one.
func TestFig7FullConfigMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-config evaluation")
	}
	cfg := Full()
	l, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.SetAgent(rl.NewAgent(cfg.Net, cfg.Net.BuildActor(rng.New(7))))
	swept, err := l.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := l.Fig7Reference()
	if err != nil {
		t.Fatal(err)
	}
	requireSameSeries(t, "fig7-full", swept.Days, swept.Costs, ref.Costs)
}

// BenchmarkFig7Horizons times the Fig. 7 horizon sweep at the Quick profile
// on one core: perwindow re-assigns and re-prices every method at every
// horizon (Fig7Reference), swept builds each method's cumulative costs once
// and reads every horizon off them (Fig7, its cache dropped per iteration).
// A random agent stands in for the trained one; neither the runtime nor the
// equivalence depends on its weights.
func BenchmarkFig7Horizons(b *testing.B) {
	cfg := Quick()
	cfg.Workers = 1
	l, err := NewLab(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l.SetAgent(rl.NewAgent(cfg.Net, cfg.Net.BuildActor(rng.New(7))))
	for _, bc := range []struct {
		name string
		run  func() (*Fig7Result, error)
	}{
		{"perwindow", l.Fig7Reference},
		{"swept", func() (*Fig7Result, error) { l.ResetEvalCache(); return l.Fig7() }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
