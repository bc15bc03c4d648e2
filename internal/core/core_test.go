package core

import (
	"math"
	"testing"

	"minicost/internal/aggregate"
	"minicost/internal/costmodel"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.A3C.Net = rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
	cfg.A3C.Workers = 2
	cfg.A3C.Seed = 11
	cfg.TrainSteps = 250000
	return cfg
}

func genTrace(t testing.TB, files, days int, seed uint64) *trace.Trace {
	t.Helper()
	gc := trace.DefaultGenConfig()
	gc.NumFiles = files
	gc.Days = days
	gc.Seed = seed
	tr, err := trace.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testConfig()); err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.A3C.LearningRate = -1
	if _, err := New(bad); err == nil {
		t.Error("invalid A3C config accepted")
	}
	bad = testConfig()
	bad.InitialTier = pricing.Tier(9)
	if _, err := New(bad); err == nil {
		t.Error("invalid tier accepted")
	}
	bad = testConfig()
	bad.TrainSteps = -1
	if _, err := New(bad); err == nil {
		t.Error("negative train steps accepted")
	}
	bad = testConfig()
	bad.Aggregation = &aggregate.Config{}
	if _, err := New(bad); err == nil {
		t.Error("invalid aggregation config accepted")
	}
	bad = testConfig()
	badPricing := pricing.Azure()
	badPricing.TransitionPerGB = -1
	bad.Pricing = badPricing
	if _, err := New(bad); err == nil {
		t.Error("invalid pricing accepted")
	}
}

func TestRunRequiresTraining(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(genTrace(t, 5, 10, 1)); err != ErrUntrained {
		t.Fatalf("err = %v, want ErrUntrained", err)
	}
	if _, err := s.Assigner(); err != ErrUntrained {
		t.Fatalf("Assigner err = %v, want ErrUntrained", err)
	}
}

func TestTrainAndRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train := genTrace(t, 200, 21, 1)
	test := genTrace(t, 150, 21, 2)
	stats, err := s.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps < cfg.TrainSteps {
		t.Fatalf("trained %d of %d steps", stats.Steps, cfg.TrainSteps)
	}
	report, err := s.Run(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Daily) != test.Days {
		t.Fatal("report day count wrong")
	}
	if report.Total.Total() <= 0 {
		t.Fatal("zero bill")
	}
	// Run's store-metered bill must equal pricing the same assignment via
	// the cost model (two independent accounting paths).
	assigner, err := s.Assigner()
	if err != nil {
		t.Fatal(err)
	}
	board, err := policy.Score(s.Model(), test, pricing.Hot, 0, assigner, policy.Static{Tier: pricing.Hot})
	if err != nil {
		t.Fatal(err)
	}
	cost, hot := board[0].Total, board[1].Total
	if math.Abs(cost.Total()-report.Total.Total()) > 1e-6 {
		t.Fatalf("store bill %v != assigner bill %v", report.Total.Total(), cost.Total())
	}
	// The trained system must beat the all-hot baseline on the test set.
	if report.Total.Total() >= hot.Total() {
		t.Fatalf("MiniCost %v not better than all-hot %v", report.Total.Total(), hot.Total())
	}
	t.Logf("minicost=%.4f hot=%.4f changes=%d", report.Total.Total(), hot.Total(), report.TierChanges)
}

func TestRunWithAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := testConfig()
	cfg.TrainSteps = 8000
	aggCfg := aggregate.DefaultConfig()
	cfg.Aggregation = &aggCfg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := aggTrace(t, 80, 28, 3)
	if _, err := s.Train(tr); err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The same system without aggregation must cost at least as much
	// (the aggregator only acts on positive-Ω groups).
	cfg2 := cfg
	cfg2.Aggregation = nil
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetAgent(s.Agent())
	plain, err := s2.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if report.AggregatedGroups > 0 && report.Total.Total() > plain.Total.Total()*1.001 {
		t.Fatalf("aggregation raised cost: %v -> %v (%d groups)",
			plain.Total.Total(), report.Total.Total(), report.AggregatedGroups)
	}
	t.Logf("plain=%.4f withAgg=%.4f groups=%d", plain.Total.Total(), report.Total.Total(), report.AggregatedGroups)
}

func TestSetAgentSkipsTraining(t *testing.T) {
	cfg := testConfig()
	cfg.TrainSteps = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(genTrace(t, 5, 10, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Agent() == nil {
		t.Fatal("TrainSteps=0 should still install a snapshot agent")
	}
	report, err := s.Run(genTrace(t, 5, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if report.DecisionTime <= 0 {
		t.Fatal("decision time not measured")
	}
}

func TestRunReportLedgerConsistent(t *testing.T) {
	cfg := testConfig()
	cfg.TrainSteps = 0
	s, _ := New(cfg)
	tr := genTrace(t, 10, 14, 6)
	if _, err := s.Train(tr); err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	sum := costmodel.SumBreakdowns(report.Daily)
	if math.Abs(sum.Total()-report.Total.Total()) > 1e-9 {
		t.Fatal("daily ledger does not sum to total")
	}
}

// aggTrace is a workload with concurrent-request groups for the aggregation
// enhancement to act on.
func aggTrace(t testing.TB, files, days int, seed uint64) *trace.Trace {
	t.Helper()
	gc := trace.DefaultGenConfig()
	gc.NumFiles = files
	gc.Days = days
	gc.HeadFraction = 0.15
	gc.GroupFraction = 0.5
	gc.Seed = seed
	tr, err := trace.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRunExecutesTheRLPlan pins Run to its Assigner. With a deterministic
// agent (TrainSteps = 0 installs the seeded initial snapshot, no training
// runs) the store must execute exactly the plan Assign returns: TierChanges
// is the plan's transition count and the metered Total is the plan's
// TraceCost. Aggregation changes what the store bills, never the plan, so
// with it on TierChanges stays the same.
func TestRunExecutesTheRLPlan(t *testing.T) {
	cfg := testConfig()
	cfg.TrainSteps = 0
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := aggTrace(t, 80, 28, 3)
	if _, err := sys.Train(tr); err != nil {
		t.Fatal(err)
	}
	assigner, err := sys.Assigner()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := assigner.Assign(tr, sys.Model(), cfg.InitialTier)
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	init := make([]pricing.Tier, tr.NumFiles())
	for i, p := range plan {
		changes += p.Changes(cfg.InitialTier)
		init[i] = cfg.InitialTier
	}
	if changes == 0 {
		t.Fatal("the plan never changes a tier; the test needs a workload that moves files")
	}
	bds, err := sys.Model().TraceCost(tr, plan, init, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := costmodel.SumBreakdowns(bds).Total()

	report, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if report.TierChanges != changes {
		t.Fatalf("Run executed %d tier changes, the plan has %d", report.TierChanges, changes)
	}
	if got := report.Total.Total(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("Run billed %v, the plan prices at %v", got, want)
	}

	aggCfg := aggregate.DefaultConfig()
	cfg.Aggregation = &aggCfg
	withAgg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withAgg.SetAgent(sys.Agent())
	aggReport, err := withAgg.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if aggReport.AggregatedGroups == 0 {
		t.Fatal("no group was aggregated; the test needs a workload the enhancement acts on")
	}
	if aggReport.TierChanges != changes {
		t.Fatalf("with aggregation Run executed %d tier changes, the plan has %d", aggReport.TierChanges, changes)
	}
}
