package rl_test

import (
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// TestEvaluateAgentPropagatesEnvErrors verifies that scoring an agent
// surfaces trace corruption instead of mispricing silently.
func TestEvaluateAgentPropagatesEnvErrors(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.NumFiles, gen.Days = 4, 10
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	tr.Files[2].SizeGB = 0 // invalid size -> the decider must refuse the file
	netCfg := rl.NetConfig{HistLen: 7, Filters: 4, Kernel: 3, Stride: 1, Hidden: 8}
	agent := rl.NewAgent(netCfg, netCfg.BuildActor(rng.New(1)))
	mini := policy.RL{Agent: agent, HistLen: 7}
	if _, err := policy.Score(costmodel.New(pricing.Azure()), tr, pricing.Hot, 0, mini); err == nil {
		t.Fatal("corrupted trace accepted")
	}
}
