package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minicost/internal/agentserver"
	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/obs"
	"minicost/internal/online"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// TestFinetuneA3CPassesWorkersThrough: the fine-tune shape reaches
// A3CConfig as given, so a worker count below one is refused by Validate
// instead of silently becoming the default's.
func TestFinetuneA3CPassesWorkersThrough(t *testing.T) {
	if err := finetuneA3C(0, 8).Validate(); err == nil {
		t.Error("finetuneA3C(0, 8) passed validation; want Workers 0 refused")
	}
	if err := finetuneA3C(-1, 8).Validate(); err == nil {
		t.Error("finetuneA3C(-1, 8) passed validation; want Workers -1 refused")
	}
	cfg := finetuneA3C(2, 8)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 2 || cfg.EnvsPerWorker != 8 || cfg.Parallelism != 0 {
		t.Errorf("finetuneA3C(2, 8) = Workers %d, EnvsPerWorker %d, Parallelism %d",
			cfg.Workers, cfg.EnvsPerWorker, cfg.Parallelism)
	}
}

// bootNet is a small architecture for the boot tests.
var bootNet = rl.NetConfig{HistLen: 7, Filters: 4, Kernel: 4, Stride: 1, Hidden: 8}

// bootOnline boots the daemon's -online path from path, with the fine-tune
// shape minicostd's defaults give.
func bootOnline(t *testing.T, path string) (*bootState, error) {
	t.Helper()
	return load(path, true, finetuneA3C(1, 8), agentserver.Config{})
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
	cfg := finetuneA3C(1, 8)
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
	cfg := finetuneA3C(1, 2)
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
	ft := finetuneA3C(1, 8)
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
	cfg := finetuneA3C(1, 8)
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
// (keep every checkpoint) stays valid. A negative cadence or drift threshold,
// which online.New would refuse only after the checkpoint was read, and a
// NaN threshold, which no drift score reaches, are refused up front; zero
// (that trigger off) stays valid.
func TestCheckOnlineFlagsRefusesZeros(t *testing.T) {
	ft := finetuneA3C(1, 8)
	for _, c := range []struct {
		steps int64
		every int
		drift float64
		keep  int
		ok    bool
	}{
		{2048, 16, 0.25, 5, true},
		{1, 16, 0.25, -1, true},
		{2048, 0, 0, 5, true},
		{0, 16, 0.25, 5, false},
		{-1, 16, 0.25, 5, false},
		{2048, 16, 0.25, 0, false},
		{2048, -1, 0.25, 5, false},
		{2048, 16, -0.25, 5, false},
		{2048, 16, math.NaN(), 5, false},
	} {
		err := checkOnlineFlags(ft, c.steps, c.every, c.drift, c.keep)
		if (err == nil) != c.ok {
			t.Errorf("checkOnlineFlags(steps %d, every %d, drift %v, keep %d) = %v, want ok %v",
				c.steps, c.every, c.drift, c.keep, err, c.ok)
		}
	}
	if err := checkOnlineFlags(finetuneA3C(0, 8), 2048, 16, 0.25, 5); err == nil {
		t.Error("checkOnlineFlags passed Workers 0")
	}
}

// smokeProbe is the one-day observe scripts/smoke_serve.sh posts to a daemon
// booted with no flags.
var smokeProbe = []agentserver.FileObservation{
	{ID: "a", SizeGB: 0.5, Reads: 100, Writes: 2},
	{ID: "b", SizeGB: 1, Reads: 0.01, Writes: 0},
}

// greedyReference replays days of observations through srv, one observe
// and one plan a day, and holds every served tier to policy.Greedy's plan
// of the same trace; it returns the last plan.
func greedyReference(t *testing.T, srv *agentserver.Server, tr *trace.Trace) *agentserver.PlanResponse {
	t.Helper()
	want, err := policy.Greedy{}.Assign(tr, costmodel.New(pricing.Azure()), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	var plan *agentserver.PlanResponse
	for d := 0; d < tr.Days-1; d++ {
		req := &agentserver.ObserveRequest{}
		for i := range tr.Files {
			req.Files = append(req.Files, agentserver.FileObservation{
				ID: fmt.Sprintf("f%03d", i), SizeGB: tr.Files[i].SizeGB, Reads: tr.Reads[i][d], Writes: tr.Writes[i][d],
			})
		}
		if _, err := srv.Observe(req); err != nil {
			t.Fatal(err)
		}
		if plan, err = srv.BuildPlan(false); err != nil {
			t.Fatal(err)
		}
		for _, e := range plan.Files {
			var i int
			if _, err := fmt.Sscanf(e.ID, "f%03d", &i); err != nil {
				t.Fatal(err)
			}
			if e.Tier != want[i][d+1].String() {
				t.Fatalf("day %d: %s served %s, Greedy plans %s", d+1, e.ID, e.Tier, want[i][d+1])
			}
		}
	}
	return plan
}

// TestBootWithoutCheckpointServesGreedy: with no checkpoint minicostd trains
// nothing and serves policy.Greedy, tier for tier, from the first plan on —
// including the two-file probe whose tiers scripts/smoke_serve.sh asserts.
func TestBootWithoutCheckpointServesGreedy(t *testing.T) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })
	before := reg.Snapshot().Counter("minicost_train_steps_total")

	st, err := load("", false, finetuneA3C(1, 8), agentserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.agent != nil || st.trainer != nil || st.server.AgentServing() {
		t.Fatalf("boot without a checkpoint: agent %v, trainer %v, agent serving %v", st.agent, st.trainer, st.server.AgentServing())
	}
	if _, err := st.server.Observe(&agentserver.ObserveRequest{Files: smokeProbe}); err != nil {
		t.Fatal(err)
	}
	plan, err := st.server.BuildPlan(false)
	if err != nil {
		t.Fatal(err)
	}
	probe := &trace.Trace{Days: 2}
	for i, f := range smokeProbe {
		probe.Files = append(probe.Files, trace.FileMeta{ID: i, SizeGB: f.SizeGB})
		probe.Reads = append(probe.Reads, []float64{f.Reads, 0})
		probe.Writes = append(probe.Writes, []float64{f.Writes, 0})
	}
	want, err := policy.Greedy{}.Assign(probe, st.model, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile(filepath.Join("..", "..", "scripts", "smoke_serve.sh"))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range plan.Files {
		if e.ID != smokeProbe[i].ID || e.Tier != want[i][1].String() {
			t.Fatalf("probe plan entry %d = %+v, Greedy plans %s for %s", i, e, want[i][1], smokeProbe[i].ID)
		}
		if line := fmt.Sprintf(`"id":"%s","tier":"%s"`, e.ID, e.Tier); !strings.Contains(string(script), line) {
			t.Errorf("scripts/smoke_serve.sh does not assert %s", line)
		}
	}
	if after := reg.Snapshot().Counter("minicost_train_steps_total"); after != before {
		t.Fatalf("booting without a checkpoint trained %v steps", after-before)
	}

	gen := trace.DefaultGenConfig()
	gen.NumFiles = 60
	gen.Days = 20
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	st, err = load("", false, finetuneA3C(1, 8), agentserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	greedyReference(t, st.server, tr)
}

// TestBootWithoutCheckpointOnline: -online with no checkpoint serves Greedy
// and fine-tunes a fresh trainer of shape freshNet, which the learner
// accepts over the Greedy server's window.
func TestBootWithoutCheckpointOnline(t *testing.T) {
	st, err := load("", true, finetuneA3C(1, 8), agentserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := finetuneA3C(1, 8)
	cfg.Net = freshNet
	fresh, err := rl.NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.agent != nil || st.trainer == nil || st.trainer.Config().Net != freshNet {
		t.Fatalf("boot: agent %v, trainer %v", st.agent, st.trainer)
	}
	wantA, wantC := fresh.ParamVectors()
	gotA, gotC := st.trainer.ParamVectors()
	bitwise(t, "trainer actor", gotA, wantA)
	bitwise(t, "trainer critic", gotC, wantC)
	if _, err := online.New(online.Config{
		Trainer: st.trainer, Serving: st.server, Model: st.model,
		Reward: mdp.DefaultReward(), Initial: pricing.Hot, SwapGate: true,
	}); err != nil {
		t.Fatal(err)
	}
	gen := trace.DefaultGenConfig()
	gen.NumFiles = 20
	gen.Days = 6
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	greedyReference(t, st.server, tr)
	if st.server.AgentServing() {
		t.Fatal("an agent serves before any epoch")
	}
}
