package rl

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

func smallDQNConfig() DQNConfig {
	cfg := DefaultDQNConfig()
	cfg.Net = NetConfig{HistLen: 7, Filters: 8, Kernel: 4, Stride: 1, Hidden: 16}
	cfg.BufferSize = 5000
	cfg.WarmupSteps = 200
	cfg.Seed = 9
	return cfg
}

func TestDQNConfigValidate(t *testing.T) {
	if err := DefaultDQNConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(*DQNConfig)) DQNConfig {
		c := smallDQNConfig()
		f(&c)
		return c
	}
	for i, c := range []DQNConfig{
		mut(func(c *DQNConfig) { c.LearningRate = 0 }),
		mut(func(c *DQNConfig) { c.Gamma = 1 }),
		mut(func(c *DQNConfig) { c.EpsilonFinal = 0.9 }), // above start
		mut(func(c *DQNConfig) { c.BatchSize = 0 }),
		mut(func(c *DQNConfig) { c.BufferSize = 8; c.BatchSize = 32 }),
		mut(func(c *DQNConfig) { c.UpdateEvery = 0 }),
		mut(func(c *DQNConfig) { c.TargetSync = 0 }),
		mut(func(c *DQNConfig) { c.WarmupSteps = 1 }),
		mut(func(c *DQNConfig) { c.BufferSize = 100; c.WarmupSteps = 1000 }), // the ring never fills that far
		mut(func(c *DQNConfig) { c.ExploreHold = -1 }),
	} {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid DQN config accepted", i)
		}
		if _, err := NewDQN(c); err == nil {
			t.Errorf("case %d: NewDQN accepted invalid config", i)
		}
	}
}

func TestDQNTrainRejectsBadArgs(t *testing.T) {
	d, err := NewDQN(smallDQNConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Train(nil, 100); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := d.Train(traceSource(t, polarTrace(t, 2, 10), 7), 0); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestDQNEpsilonAnneals(t *testing.T) {
	d, err := NewDQN(smallDQNConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.epsilon(0); math.Abs(got-d.cfg.EpsilonStart) > 1e-12 {
		t.Fatalf("eps(0) = %v", got)
	}
	if got := d.epsilon(1); math.Abs(got-d.cfg.EpsilonFinal) > 1e-12 {
		t.Fatalf("eps(1) = %v", got)
	}
	if got := d.epsilon(2); math.Abs(got-d.cfg.EpsilonFinal) > 1e-12 {
		t.Fatalf("eps clamps at final, got %v", got)
	}
	mid := d.epsilon(0.5)
	if mid <= d.cfg.EpsilonFinal || mid >= d.cfg.EpsilonStart {
		t.Fatalf("eps(0.5) = %v outside schedule", mid)
	}
}

func TestDQNReplayRing(t *testing.T) {
	cfg := smallDQNConfig()
	cfg.BufferSize = 64
	cfg.BatchSize = 8
	cfg.WarmupSteps = 8
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d.push(transition{action: i})
	}
	if d.filled != 64 {
		t.Fatalf("ring filled %d, want 64", d.filled)
	}
	// The ring holds the most recent 64 entries.
	seen := map[int]bool{}
	for _, tr := range d.buffer {
		seen[tr.action] = true
	}
	for i := 136; i < 200; i++ {
		if !seen[i] {
			t.Fatalf("recent transition %d evicted", i)
		}
	}
}

func TestDQNLearnsPolarWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tr := polarTrace(t, 20, 21)
	model := costmodel.New(pricing.Azure())
	cfg := smallDQNConfig()
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := d.Train(traceSource(t, tr, cfg.Net.HistLen), 40000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps < 40000 || stats.Updates == 0 {
		t.Fatalf("stats %+v", stats)
	}
	agent := d.Agent()
	got, err := planBill(agent, model, tr, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	evalUniform := func(tier pricing.Tier) float64 {
		init := make([]pricing.Tier, tr.NumFiles())
		for i := range init {
			init[i] = pricing.Hot
		}
		bds, err := model.TraceCost(tr, costmodel.UniformAssignment(tier, tr.NumFiles(), tr.Days), init, 0)
		if err != nil {
			t.Fatal(err)
		}
		return costmodel.SumBreakdowns(bds).Total()
	}
	hot := evalUniform(pricing.Hot)
	if got > hot {
		t.Fatalf("DQN %v worse than all-hot %v", got, hot)
	}
	t.Logf("dqn=%.4f hot=%.4f", got, hot)
}

func TestAgentCheckpointRoundTrip(t *testing.T) {
	cfg := NetConfig{HistLen: 7, Filters: 8, Kernel: 4, Stride: 1, Hidden: 16}
	agent := NewAgent(cfg, cfg.BuildActor(rng.New(3)))
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Net != cfg {
		t.Fatalf("round trip changed the architecture: %+v", back.Net)
	}
	assertVectorsBitwise(t, "actor after round trip", back.ParamVector(), agent.ParamVector())
}

func TestLoadAgentRejectsGarbage(t *testing.T) {
	if _, err := LoadAgent(bytes.NewBufferString("not a checkpoint")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestA3CCheckpointRoundTrip(t *testing.T) {
	cfg := smallA3CConfig()
	a1, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	a2, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	wantA, wantC := a1.ParamVectors()
	gotA, gotC := a2.ParamVectors()
	assertVectorsBitwise(t, "actor after round trip", gotA, wantA)
	assertVectorsBitwise(t, "critic after round trip", gotC, wantC)
	// Architecture mismatch rejected.
	other := cfg
	other.Net.Hidden = 8
	a3, err := NewA3C(other)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := a1.SaveCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := a3.LoadCheckpoint(&buf2); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
}

func BenchmarkDQNTrainStep(b *testing.B) {
	tr := polarTrace(b, 8, 14)
	cfg := smallDQNConfig()
	d, err := NewDQN(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := traceSource(b, tr, cfg.Net.HistLen)
	b.ResetTimer()
	if _, err := d.Train(src, int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// TestDQNGoldenHash pins a whole DQN run — ε-greedy action picks, replay
// sampling, minibatch updates, target syncs — as the online network's
// parameter hash (paramHash's FNV-1a), recorded when the update still ran
// one sample at a time. A change that moves it changed the learner's
// arithmetic. The constant is amd64's, like TestVecTrainGoldenHashes'.
func TestDQNGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hash was recorded on amd64; fused multiply-adds round differently")
	}
	gen := trace.DefaultGenConfig()
	gen.NumFiles, gen.Days = 40, 21
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDQNConfig()
	cfg.Net = netQuick16
	cfg.Seed = 3
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Train(traceSource(t, tr, cfg.Net.HistLen), 6000); err != nil {
		t.Fatal(err)
	}
	if got, want := hashVectors(d.online.ParamVector()), uint64(0x46dc73cd18f598a1); got != want {
		t.Errorf("online parameter hash %#x, want %#x", got, want)
	}
}
