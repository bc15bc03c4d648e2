package rl

import (
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
)

func TestTrainWithSelectionValidation(t *testing.T) {
	a3c, err := NewA3C(smallA3CConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.New(pricing.Azure())
	tr := polarTrace(t, 6, 10)
	if _, _, err := TrainWithSelection(a3c, m, tr, mdp.DefaultReward(), 2, 5, pricing.Hot); err == nil {
		t.Fatal("totalSteps below chunk count accepted")
	}
}

func TestTrainWithSelectionReturnsScoredAgent(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.New(pricing.Azure())
	tr := polarTrace(t, 20, 21)
	agent, stats, err := TrainWithSelection(a3c, m, tr, mdp.DefaultReward(), 30000, 5, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if agent == nil {
		t.Fatal("no agent returned")
	}
	if stats.Steps < 30000 {
		t.Fatalf("aggregated stats cover %d steps", stats.Steps)
	}
	// The selected snapshot must not be worse than untrained all-hot-ish
	// behaviour on the same workload: compare against the all-hot bill.
	got, err := planBill(agent, m, tr, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]pricing.Tier, tr.NumFiles())
	for i := range init {
		init[i] = pricing.Hot
	}
	bds, err := m.TraceCost(tr, costmodel.UniformAssignment(pricing.Hot, tr.NumFiles(), tr.Days), init, 0)
	if err != nil {
		t.Fatal(err)
	}
	hot := costmodel.SumBreakdowns(bds).Total()
	if got > hot {
		t.Fatalf("selected agent %v worse than all-hot %v", got, hot)
	}
	// Chunked selection must leave the trainer resumable.
	if a3c.Steps() < 30000 {
		t.Fatalf("trainer steps %d", a3c.Steps())
	}
}
