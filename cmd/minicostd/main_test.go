package main

import (
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/online"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// TestFinetuneA3CPassesWorkersThrough: the fine-tune shape reaches
// A3CConfig as given, so a worker count below one is refused by Validate
// instead of silently becoming the default's.
func TestFinetuneA3CPassesWorkersThrough(t *testing.T) {
	if err := finetuneA3C(0, 8, 0).Validate(); err == nil {
		t.Error("finetuneA3C(0, 8, 0) passed validation; want Workers 0 refused")
	}
	if err := finetuneA3C(-1, 8, 0).Validate(); err == nil {
		t.Error("finetuneA3C(-1, 8, 0) passed validation; want Workers -1 refused")
	}
	cfg := finetuneA3C(2, 8, 3)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 2 || cfg.EnvsPerWorker != 8 || cfg.Parallelism != 3 {
		t.Errorf("finetuneA3C(2, 8, 3) = Workers %d, EnvsPerWorker %d, Parallelism %d",
			cfg.Workers, cfg.EnvsPerWorker, cfg.Parallelism)
	}
}

// bootNet is a small architecture for the boot tests.
var bootNet = rl.NetConfig{HistLen: 7, Filters: 4, Kernel: 4, Stride: 1, Hidden: 8}

// bootOnline boots the daemon's -online path from path, with the fine-tune
// shape minicostd's defaults give.
func bootOnline(t *testing.T, path string) (*bootState, error) {
	t.Helper()
	return loadOrBootstrap(bootOpts{checkpoint: path, online: true, finetuneConfig: finetuneA3C(1, 8, 0)})
}

// writeFile writes a checkpoint through save to a fresh file.
func writeFile(t *testing.T, save func(io.Writer) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "boot.ckpt")
	if err := online.WriteAtomic(path, save); err != nil {
		t.Fatal(err)
	}
	return path
}

// bitwise fails unless got and want hold the same float64 bit patterns.
func bitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestBootActorOnlyCheckpointKeepsFreshCritic: -checkpoint -online on a file
// Agent.Save wrote serves and fine-tunes the file's actor, and the trainer's
// critic is the one rl.NewA3C initializes for the fine-tune config.
func TestBootActorOnlyCheckpointKeepsFreshCritic(t *testing.T) {
	agent := rl.NewAgent(bootNet, bootNet.BuildActor(rng.New(3)))
	st, err := bootOnline(t, writeFile(t, agent.Save))
	if err != nil {
		t.Fatal(err)
	}
	cfg := finetuneA3C(1, 8, 0)
	cfg.Net = bootNet
	fresh, err := rl.NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, wantC := fresh.ParamVectors()
	gotA, gotC := st.trainer.ParamVectors()
	bitwise(t, "serving actor", st.agent.ParamVector(), agent.ParamVector())
	bitwise(t, "trainer actor", gotA, agent.ParamVector())
	bitwise(t, "trainer critic", gotC, wantC)
}

// TestBootLearnerCheckpointRestoresCritic: -checkpoint -online on a trainer
// checkpoint restores its actor and its critic.
func TestBootLearnerCheckpointRestoresCritic(t *testing.T) {
	cfg := finetuneA3C(1, 2, 0)
	cfg.Net = bootNet
	cfg.Seed = 5
	src, err := rl.NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.DefaultGenConfig()
	gen.NumFiles = 8
	gen.Days = 14
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	envs, err := rl.NewTraceSource(costmodel.New(pricing.Azure()), tr, bootNet.HistLen, mdp.DefaultReward(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.TrainFrom(envs, 300); err != nil {
		t.Fatal(err)
	}
	wantA, wantC := src.ParamVectors()
	ft := finetuneA3C(1, 8, 0)
	ft.Net = bootNet
	fresh, err := rl.NewA3C(ft)
	if err != nil {
		t.Fatal(err)
	}
	if _, freshC := fresh.ParamVectors(); math.Float64bits(freshC[0]) == math.Float64bits(wantC[0]) {
		t.Fatal("the file's critic starts like a fresh one; the test cannot tell them apart")
	}
	st, err := bootOnline(t, writeFile(t, src.SaveCheckpoint))
	if err != nil {
		t.Fatal(err)
	}
	gotA, gotC := st.trainer.ParamVectors()
	bitwise(t, "serving actor", st.agent.ParamVector(), wantA)
	bitwise(t, "trainer actor", gotA, wantA)
	bitwise(t, "trainer critic", gotC, wantC)
}

// TestBootRefusesNonFiniteCritic: the critic never serves, so nothing
// downstream would notice an Inf in it until every advantage it feeds is
// non-finite; -checkpoint -online refuses the file at boot.
func TestBootRefusesNonFiniteCritic(t *testing.T) {
	cfg := finetuneA3C(1, 8, 0)
	cfg.Net = bootNet
	src, err := rl.NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	actor, critic := src.ParamVectors()
	critic[len(critic)/2] = math.Inf(1)
	if err := src.SetParamVectors(actor, critic); err != nil {
		t.Fatal(err)
	}
	if _, err := bootOnline(t, writeFile(t, src.SaveCheckpoint)); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("boot error %v, want the non-finite refusal", err)
	}
}

// TestCheckOnlineFlagsRefusesZeros: explicit zeros online.Config would read
// as "unset" are refused, not replaced by its defaults; -checkpoint-keep -1
// (keep every checkpoint) stays valid.
func TestCheckOnlineFlagsRefusesZeros(t *testing.T) {
	ft := finetuneA3C(1, 8, 0)
	for _, c := range []struct {
		steps int64
		keep  int
		ok    bool
	}{
		{2048, 5, true},
		{1, -1, true},
		{0, 5, false},
		{-1, 5, false},
		{2048, 0, false},
	} {
		err := checkOnlineFlags(ft, c.steps, c.keep)
		if (err == nil) != c.ok {
			t.Errorf("checkOnlineFlags(steps %d, keep %d) = %v, want ok %v", c.steps, c.keep, err, c.ok)
		}
	}
	if err := checkOnlineFlags(finetuneA3C(0, 8, 0), 2048, 5); err == nil {
		t.Error("checkOnlineFlags passed Workers 0")
	}
}
