package rl

import (
	"fmt"
	"testing"

	"minicost/internal/costmodel"
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
// once an agent has served a chunk (history window and log series built,
// plans sized, network scratch warm), re-serving the same-shaped chunk
// allocates nothing. Six files run the packed products under one eight-row
// group; 67 run them over two row panels, where every layer's last column
// tile — all of the 3-wide output layer — is ragged and runs on a stack
// panel.
func TestDecideTraceSteadyStateAllocFree(t *testing.T) {
	cfg := smallA3CConfig()
	for _, files := range []int{6, 67} {
		t.Run(fmt.Sprintf("files=%d", files), func(t *testing.T) {
			agent := NewAgent(cfg.Net, cfg.Net.BuildActor(rng.New(9)))
			tr := polarTrace(t, files, 20)
			out := make(costmodel.Assignment, tr.NumFiles())

			serve := func() {
				if err := agent.DecideTrace(tr, 0, tr.NumFiles(), pricing.Hot, out, 1); err != nil {
					t.Fatal(err)
				}
			}
			serve()
			allocs := testing.AllocsPerRun(5, serve)
			if allocs != 0 {
				t.Fatalf("steady-state DecideTrace allocates %.0f/op, want 0", allocs)
			}
		})
	}
}

// TestDecideTraceReusedEnvsMatchFresh pins the scratch-recycling path: a
// second DecideTrace call over a different file range (through the reused
// feature matrix, tier buffer and history window) must produce exactly the
// plans a fresh agent computes.
func TestDecideTraceReusedEnvsMatchFresh(t *testing.T) {
	cfg := smallA3CConfig()
	r := rng.New(11)
	actor := cfg.Net.BuildActor(r)
	tr := polarTrace(t, 8, 15)

	reused := NewAgent(cfg.Net, actor)
	warm := make(costmodel.Assignment, tr.NumFiles())
	if err := reused.DecideTrace(tr, 0, 5, pricing.Hot, warm, 1); err != nil {
		t.Fatal(err)
	}
	got := make(costmodel.Assignment, tr.NumFiles())
	if err := reused.DecideTrace(tr, 2, 8, pricing.Cool, got, 1); err != nil {
		t.Fatal(err)
	}

	fresh := NewAgent(cfg.Net, actor.Clone())
	want := make(costmodel.Assignment, tr.NumFiles())
	if err := fresh.DecideTrace(tr, 2, 8, pricing.Cool, want, 1); err != nil {
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
