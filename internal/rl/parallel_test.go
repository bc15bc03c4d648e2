package rl

import (
	"fmt"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// TestBatchedTrainerParallelismBitwise pins the intra-update fan-out: a
// Workers=1 trainer running every update's GEMMs across 3 goroutines must
// land bitwise where the serial one does — the parallel kernels shard only
// independent output elements, so Parallelism never perturbs training. E=16
// makes the arena (112 rows) big enough for the fan-outs to split; E=1 is the
// default width.
func TestBatchedTrainerParallelismBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	for _, envs := range []int{1, 16} {
		cfg := smallA3CConfig()
		cfg.Workers = 1
		cfg.EnvsPerWorker = envs
		cfg.Parallelism = 3
		const steps = 448 // 4 updates at E=16, 64 at E=1

		serial := cfg
		serial.Parallelism = 0
		wantA, wantC, wantStats := trainParams(t, serial, 8, 14, steps)
		gotA, gotC, gotStats := trainParams(t, cfg, 8, 14, steps)

		if gotStats != wantStats {
			t.Fatalf("E=%d: stats diverged: parallel %+v, serial %+v", envs, gotStats, wantStats)
		}
		assertVectorsBitwise(t, fmt.Sprintf("E=%d actor", envs), gotA, wantA)
		assertVectorsBitwise(t, fmt.Sprintf("E=%d critic", envs), gotC, wantC)
	}
}

// TestDecideTraceSteadyStateAllocFree gates the serving hot path end to end:
// once an agent has served a chunk (environments built, plans sized, network
// scratch warm), re-serving the same-shaped chunk allocates nothing.
func TestDecideTraceSteadyStateAllocFree(t *testing.T) {
	cfg := smallA3CConfig()
	r := rng.New(9)
	agent := NewAgent(cfg.Net, cfg.Net.BuildActor(r))
	tr := polarTrace(t, 6, 20)
	model := costmodel.New(pricing.Azure())
	out := make(costmodel.Assignment, tr.NumFiles())
	reward := mdp.DefaultReward()

	serve := func() {
		if err := agent.DecideTrace(model, tr, 0, tr.NumFiles(), pricing.Hot, cfg.Net.HistLen, reward, out, 1); err != nil {
			t.Fatal(err)
		}
	}
	serve()
	allocs := testing.AllocsPerRun(5, serve)
	if allocs != 0 {
		t.Fatalf("steady-state DecideTrace allocates %.0f/op, want 0", allocs)
	}
}

// TestDecideTraceReusedEnvsMatchFresh pins the env-recycling path: a second
// DecideTrace call over a different file range (through recycled
// environments with recycled observations) must produce exactly the plans a
// fresh agent computes.
func TestDecideTraceReusedEnvsMatchFresh(t *testing.T) {
	cfg := smallA3CConfig()
	r := rng.New(11)
	actor := cfg.Net.BuildActor(r)
	tr := polarTrace(t, 8, 15)
	model := costmodel.New(pricing.Azure())
	reward := mdp.DefaultReward()

	reused := NewAgent(cfg.Net, actor)
	warm := make(costmodel.Assignment, tr.NumFiles())
	if err := reused.DecideTrace(model, tr, 0, 5, pricing.Hot, cfg.Net.HistLen, reward, warm, 1); err != nil {
		t.Fatal(err)
	}
	got := make(costmodel.Assignment, tr.NumFiles())
	if err := reused.DecideTrace(model, tr, 2, 8, pricing.Cool, cfg.Net.HistLen, reward, got, 1); err != nil {
		t.Fatal(err)
	}

	fresh := NewAgent(cfg.Net, actor.Clone())
	want := make(costmodel.Assignment, tr.NumFiles())
	if err := fresh.DecideTrace(model, tr, 2, 8, pricing.Cool, cfg.Net.HistLen, reward, want, 1); err != nil {
		t.Fatal(err)
	}
	for f := 2; f < 8; f++ {
		for d := 0; d < tr.Days; d++ {
			if got[f][d] != want[f][d] {
				t.Fatalf("file %d day %d: reused-env plan %v, fresh plan %v", f, d, got[f][d], want[f][d])
			}
		}
	}
}
