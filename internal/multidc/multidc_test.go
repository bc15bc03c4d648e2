package multidc

import (
	"math"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// twoDCCatalog builds us-west (default Azure prices) and eu-frugal (cheaper
// cool storage, pricier hot).
func twoDCCatalog(t testing.TB) *pricing.Catalog {
	t.Helper()
	c := pricing.NewCatalog()
	if err := c.Add("us-west", pricing.Azure()); err != nil {
		t.Fatal(err)
	}
	eu := pricing.Azure()
	eu.Name = "eu-frugal"
	eu.Tiers[pricing.Hot].StoragePerGBMonth = 0.03
	eu.Tiers[pricing.Cool].StoragePerGBMonth = 0.005
	if err := c.Add("eu-frugal", eu); err != nil {
		t.Fatal(err)
	}
	return c
}

func genTrace(t testing.TB, files, days int) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.NumFiles = files
	cfg.Days = days
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, "x"); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := New(pricing.NewCatalog(), "x"); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := New(twoDCCatalog(t), "mars"); err == nil {
		t.Error("unknown default accepted")
	}
	if _, err := New(twoDCCatalog(t), "us-west"); err != nil {
		t.Error(err)
	}
}

func TestAssignAndPartition(t *testing.T) {
	d, err := New(twoDCCatalog(t), "us-west")
	if err != nil {
		t.Fatal(err)
	}
	tr := genTrace(t, 40, 10)
	multi, err := AssignDatacenters(tr, []string{"us-west", "eu-frugal"})
	if err != nil {
		t.Fatal(err)
	}
	// Original untouched.
	if tr.Files[0].Datacenter != "" {
		t.Fatal("AssignDatacenters mutated input")
	}
	parts, err := d.Partition(multi)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("partitions %d", len(parts))
	}
	if parts["us-west"].NumFiles()+parts["eu-frugal"].NumFiles() != multi.NumFiles() {
		t.Fatal("partition loses files")
	}
	// Unknown DC rejected.
	bad := multi.Subset([]int{0, 1})
	bad.Files[0].Datacenter = "atlantis"
	if _, err := d.Partition(bad); err == nil {
		t.Fatal("unknown datacenter accepted")
	}
	if _, err := AssignDatacenters(tr, nil); err == nil {
		t.Fatal("empty dc list accepted")
	}
}

func TestEvaluateSumsPartitions(t *testing.T) {
	d, err := New(twoDCCatalog(t), "us-west")
	if err != nil {
		t.Fatal(err)
	}
	tr := genTrace(t, 60, 14)
	multi, err := AssignDatacenters(tr, []string{"us-west", "eu-frugal"})
	if err != nil {
		t.Fatal(err)
	}
	bills, total, err := d.Evaluate(policy.Greedy{}, multi, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if len(bills) != 2 {
		t.Fatalf("bills %d", len(bills))
	}
	sum := costmodel.Breakdown{}
	files := 0
	for _, b := range bills {
		sum = sum.Add(b.Cost)
		files += b.Files
	}
	if math.Abs(sum.Total()-total.Total()) > 1e-12 {
		t.Fatal("bill sum mismatch")
	}
	if files != multi.NumFiles() {
		t.Fatal("file count mismatch")
	}
	// Hand-check one partition: evaluating it directly under its own model
	// gives the same bill.
	parts, _ := d.Partition(multi)
	eu, _ := twoDCCatalog(t).Get("eu-frugal")
	board, err := policy.Score(costmodel.New(eu), parts["eu-frugal"], pricing.Hot, 0, policy.Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	direct := board[0].Total
	for _, b := range bills {
		if b.Datacenter == "eu-frugal" && math.Abs(b.Cost.Total()-direct.Total()) > 1e-12 {
			t.Fatalf("eu bill %v != direct %v", b.Cost.Total(), direct.Total())
		}
	}
}

func TestDefaultDatacenterUsedForUnlabeledFiles(t *testing.T) {
	d, err := New(twoDCCatalog(t), "us-west")
	if err != nil {
		t.Fatal(err)
	}
	tr := genTrace(t, 10, 7) // no datacenter labels
	bills, _, err := d.Evaluate(policy.Static{Tier: pricing.Hot}, tr, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if len(bills) != 1 || bills[0].Datacenter != "us-west" {
		t.Fatalf("bills %+v", bills)
	}
}

func TestPricesChangeTheOptimalPlan(t *testing.T) {
	// A file hovering between hot and cool under Azure prices should tier
	// differently under eu-frugal's cheap cool storage.
	cat := twoDCCatalog(t)
	us, _ := cat.Get("us-west")
	eu, _ := cat.Get("eu-frugal")
	days := 30
	reads := make([]float64, days)
	writes := make([]float64, days)
	for i := range reads {
		reads[i] = 0.02
	}
	_, usCost := policy.OptimalPlan(costmodel.New(us), 0.1, reads, writes, pricing.Hot)
	_, euCost := policy.OptimalPlan(costmodel.New(eu), 0.1, reads, writes, pricing.Hot)
	if usCost == euCost {
		t.Fatal("price schedules should change optimal cost")
	}
}

func TestCheapestPlacement(t *testing.T) {
	d, err := New(twoDCCatalog(t), "us-west")
	if err != nil {
		t.Fatal(err)
	}
	tr := genTrace(t, 30, 14)
	placement, total, err := d.CheapestPlacement(tr, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if len(placement) != tr.NumFiles() || total <= 0 {
		t.Fatalf("placement %d total %v", len(placement), total)
	}
	// The advisor's total must lower-bound single-DC optimal for both DCs.
	for _, dc := range d.Datacenters() {
		p, _ := twoDCCatalog(t).Get(dc)
		board, err := policy.Score(costmodel.New(p), tr, pricing.Hot, 0, policy.Optimal{})
		if err != nil {
			t.Fatal(err)
		}
		opt := board[0].Total
		if total > opt.Total()+1e-9 {
			t.Fatalf("placement total %v exceeds single-DC optimal %v in %s", total, opt.Total(), dc)
		}
	}
	for _, dc := range placement {
		if dc != "us-west" && dc != "eu-frugal" {
			t.Fatalf("unknown placement %q", dc)
		}
	}
}

func BenchmarkEvaluateTwoDCs(b *testing.B) {
	cat := pricing.NewCatalog()
	_ = cat.Add("a", pricing.Azure())
	eu := pricing.Azure()
	eu.Name = "b"
	_ = cat.Add("b", eu)
	d, err := New(cat, "a")
	if err != nil {
		b.Fatal(err)
	}
	tr := genTrace(b, 500, 21)
	multi, err := AssignDatacenters(tr, []string{"a", "b"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Evaluate(policy.Optimal{}, multi, pricing.Hot); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInvalidInitialTierRefused: both entry points take the initial tier
// from outside the program and refuse one the price schedules lack.
func TestInvalidInitialTierRefused(t *testing.T) {
	d, err := New(twoDCCatalog(t), "us-west")
	if err != nil {
		t.Fatal(err)
	}
	tr := genTrace(t, 6, 7)
	if _, _, err := d.CheapestPlacement(tr, pricing.Tier(9)); err == nil {
		t.Fatal("CheapestPlacement accepted initial tier 9")
	}
	if _, _, err := d.Evaluate(policy.Greedy{}, tr, pricing.Tier(9)); err == nil {
		t.Fatal("Evaluate accepted initial tier 9")
	}
}
