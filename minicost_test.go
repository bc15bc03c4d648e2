package minicost_test

import (
	"bytes"
	"math"
	"testing"

	"minicost"
)

func smallTrace(t testing.TB) *minicost.Trace {
	t.Helper()
	cfg := minicost.DefaultTraceConfig()
	cfg.NumFiles = 80
	cfg.Days = 21
	tr, err := minicost.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPublicSurfaceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tr := smallTrace(t)
	cfg := minicost.DefaultConfig()
	cfg.TrainSteps = 5000
	cfg.A3C.Net.Filters = 8
	cfg.A3C.Net.Hidden = 16
	cfg.A3C.Workers = 2
	sys, err := minicost.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps < cfg.TrainSteps {
		t.Fatalf("trained %d steps", stats.Steps)
	}
	report, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if report.Total.Total() <= 0 {
		t.Fatal("no bill")
	}
}

func TestBaselinesThroughFacade(t *testing.T) {
	tr := smallTrace(t)
	p := minicost.AzurePricing()
	methods := append(minicost.Baselines(), minicost.ArchiveBaseline())
	board, err := minicost.Score(tr, p, methods...)
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := board.Find("optimal")
	if !ok {
		t.Fatal("no optimal row")
	}
	for _, row := range board {
		if opt.Total.Total() > row.Total.Total()+1e-9 {
			t.Fatalf("optimal %v beaten by %s %v", opt.Total.Total(), row.Name, row.Total.Total())
		}
	}
}

func TestTraceCSVThroughFacade(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := minicost.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumFiles() != tr.NumFiles() || back.Days != tr.Days {
		t.Fatal("round trip shape mismatch")
	}
}

func TestPricingJSONThroughFacade(t *testing.T) {
	p := minicost.AzurePricing()
	data, err := p.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := minicost.ParsePricing(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name {
		t.Fatal("round trip name mismatch")
	}
}

func TestRewardDefaults(t *testing.T) {
	rc := minicost.DefaultReward()
	if !(rc.Reward(0.001) > rc.Reward(0.01)) {
		t.Fatal("reward not decreasing in cost")
	}
	if math.IsInf(rc.Reward(0), 0) {
		t.Fatal("reward unbounded at zero cost")
	}
}

func TestTierConstants(t *testing.T) {
	if minicost.Hot.String() != "hot" || minicost.Cool.String() != "cool" || minicost.Archive.String() != "archive" {
		t.Fatal("tier naming broken")
	}
}
