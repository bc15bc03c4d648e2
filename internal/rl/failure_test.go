package rl

import (
	"sync/atomic"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// TestA3CSurvivesExhaustedEnvs injects a misbehaving source: every third
// env arrives already finished, so the first Step errors. The worker must
// recover by requesting a fresh env and still complete the step budget.
func TestA3CSurvivesExhaustedEnvs(t *testing.T) {
	model := costmodel.New(pricing.Azure())
	cfg := smallA3CConfig()
	cfg.Workers = 2
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	writes := make([]float64, len(reads))
	// The factory is called concurrently by a round's workers, so the call
	// counter must be atomic.
	var calls atomic.Int64
	factory := func(r *rng.RNG) *mdp.Env {
		env, err := mdp.NewEnv(model, 0.1, reads, writes, pricing.Hot, 7, mdp.DefaultReward())
		if err != nil {
			t.Error(err)
			return nil
		}
		if calls.Add(1)%3 == 0 {
			// Exhaust the episode (days 1 onward) before handing it over.
			for d := 1; d < len(reads); d++ {
				if _, _, _, _, err := env.Step(pricing.Hot); err != nil {
					t.Error(err)
				}
			}
		}
		return env
	}
	stats, err := a3c.TrainFrom(factorySource{f: factory}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps < 2000 {
		t.Fatalf("training stalled at %d steps", stats.Steps)
	}
}

// TestDQNSurvivesExhaustedEnvs is the replay-learner counterpart.
func TestDQNSurvivesExhaustedEnvs(t *testing.T) {
	model := costmodel.New(pricing.Azure())
	cfg := smallDQNConfig()
	cfg.WarmupSteps = 64
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	writes := make([]float64, len(reads))
	calls := 0
	factory := func(r *rng.RNG) *mdp.Env {
		env, _ := mdp.NewEnv(model, 0.1, reads, writes, pricing.Hot, 7, mdp.DefaultReward())
		calls++
		if calls%3 == 0 {
			for dd := 0; dd < len(reads); dd++ {
				_, _, _, _, _ = env.Step(pricing.Hot)
			}
		}
		return env
	}
	stats, err := d.Train(factorySource{f: factory}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps < 1500 {
		t.Fatalf("training stalled at %d steps", stats.Steps)
	}
}

// TestDecideTraceRejectsBadFiles: every input an mdp.Env episode refuses —
// a non-positive history length (the agent's Net.HistLen), an invalid
// initial tier, a non-positive size — and series that do not cover the
// trace's days or disagree in length come back from DecideTrace (and
// PlanTrace) as errors, not panics.
func TestDecideTraceRejectsBadFiles(t *testing.T) {
	netCfg := NetConfig{HistLen: 7, Filters: 4, Kernel: 3, Stride: 1, Hidden: 8}
	actor := netCfg.BuildActor(rng.New(1))
	cases := []struct {
		name    string
		histLen int
		initial pricing.Tier
		corrupt func(tr *trace.Trace)
	}{
		{"zero histLen", 0, pricing.Hot, nil},
		{"negative histLen", -3, pricing.Hot, nil},
		{"invalid initial tier", 7, pricing.Tier(pricing.NumTiers), nil},
		{"negative initial tier", 7, pricing.Tier(-1), nil},
		{"zero size", 7, pricing.Hot, func(tr *trace.Trace) { tr.Files[2].SizeGB = 0 }},
		{"negative size", 7, pricing.Hot, func(tr *trace.Trace) { tr.Files[2].SizeGB = -1 }},
		{"short series", 7, pricing.Hot, func(tr *trace.Trace) {
			tr.Reads[2], tr.Writes[2] = tr.Reads[2][:5], tr.Writes[2][:5]
		}},
		{"empty series", 7, pricing.Hot, func(tr *trace.Trace) { tr.Reads[2], tr.Writes[2] = nil, nil }},
		{"unequal series", 7, pricing.Hot, func(tr *trace.Trace) { tr.Writes[2] = tr.Writes[2][:9] }},
	}
	for _, c := range cases {
		tr := polarTrace(t, 4, 10)
		if c.corrupt != nil {
			c.corrupt(tr)
		}
		cfg := netCfg
		cfg.HistLen = c.histLen
		agent := NewAgent(cfg, actor)
		out := make(costmodel.Assignment, tr.NumFiles())
		if err := agent.DecideTrace(tr, 0, tr.NumFiles(), c.initial, out); err == nil {
			t.Errorf("%s: DecideTrace accepted the input", c.name)
		}
		if _, err := PlanTrace(NewReplicaPool(agent), tr, c.initial, 2, 1); err == nil {
			t.Errorf("%s: PlanTrace accepted the input", c.name)
		}
	}
}
