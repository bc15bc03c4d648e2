package rl

import (
	"io"
	"math"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/pricing"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

func TestNetConfigValidate(t *testing.T) {
	if err := DefaultNetConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultNetConfig()
	bad.Kernel = 99
	if bad.Validate() == nil {
		t.Error("kernel > history accepted")
	}
	bad = DefaultNetConfig()
	bad.Hidden = 0
	if bad.Validate() == nil {
		t.Error("zero hidden accepted")
	}
}

func TestAgentDecideAndSample(t *testing.T) {
	cfg := NetConfig{HistLen: 7, Filters: 4, Kernel: 3, Stride: 1, Hidden: 8}
	r := rng.New(1)
	agent := NewAgent(cfg, cfg.BuildActor(r))
	s := mdp.State{
		ReadHistory:  make([]float64, 7),
		WriteHistory: make([]float64, 7),
		SizeGB:       0.1,
		Tier:         pricing.Hot,
	}
	tier := agent.Decide(&s)
	if !tier.Valid() {
		t.Fatalf("invalid decision %v", tier)
	}
	p := make([]float64, mdp.NumActions)
	nn.SoftmaxInto(p, rowForward(agent.actor, s.Features()))
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum %v", sum)
	}
	// Decide must be argmax of π.
	best := 0
	for i := range p {
		if p[i] > p[best] {
			best = i
		}
	}
	if int(tier) != best {
		t.Fatal("Decide disagrees with π's argmax")
	}
	// The engine's action draw inverts π's CDF (sampleDist): u at the middle
	// of tier k's mass draws k, and u past the total, which rounding can
	// leave short of 1, draws the last tier.
	acc := 0.0
	for k, pk := range p {
		if got := sampleDist(p, acc+pk/2); got != pricing.Tier(k) {
			t.Fatalf("u inside tier %d's mass drew %v", k, got)
		}
		acc += pk
	}
	if got := sampleDist(p, 1); got != pricing.Tier(len(p)-1) {
		t.Fatalf("u = 1 drew %v, want the last tier", got)
	}
}

func TestAgentCloneIndependent(t *testing.T) {
	cfg := NetConfig{HistLen: 7, Filters: 4, Kernel: 3, Stride: 1, Hidden: 8}
	r := rng.New(2)
	a := NewAgent(cfg, cfg.BuildActor(r))
	b := a.Clone()
	s := mdp.State{ReadHistory: make([]float64, 7), WriteHistory: make([]float64, 7), SizeGB: 0.1}
	s.ReadHistory[3] = 5
	if a.Decide(&s) != b.Decide(&s) {
		t.Fatal("clone decides differently")
	}
}

func TestA3CConfigValidate(t *testing.T) {
	if err := DefaultA3CConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(*A3CConfig)) A3CConfig {
		c := DefaultA3CConfig()
		f(&c)
		return c
	}
	for i, c := range []A3CConfig{
		mut(func(c *A3CConfig) { c.LearningRate = 0 }),
		mut(func(c *A3CConfig) { c.Gamma = 1 }),
		mut(func(c *A3CConfig) { c.Epsilon = -0.1 }),
		mut(func(c *A3CConfig) { c.NSteps = 0 }),
		mut(func(c *A3CConfig) { c.Workers = 0 }),
		mut(func(c *A3CConfig) { c.EnvsPerWorker = -1 }),
		mut(func(c *A3CConfig) { c.EntropyBeta = -1 }),
		mut(func(c *A3CConfig) { c.ExploreHold = -1 }),
		mut(func(c *A3CConfig) { c.GradClip = -1 }),
		mut(func(c *A3CConfig) { c.AdvClip = -0.5 }),
		mut(func(c *A3CConfig) { c.CriticLRMult = 0 }),
		mut(func(c *A3CConfig) { c.FinalLRFraction = 0 }),
		mut(func(c *A3CConfig) { c.FinalLRFraction = 1.5 }),
	} {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := NewA3C(c); err == nil {
			t.Errorf("case %d: NewA3C accepted invalid config", i)
		}
	}
}

// polarTrace builds a trace where the optimal policy is obvious: half the
// files are "busy" (hot clearly optimal), half are "idle" (archive clearly
// optimal), with stable frequencies.
func polarTrace(t testing.TB, files, days int) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{Days: days}
	for i := 0; i < files; i++ {
		reads := make([]float64, days)
		writes := make([]float64, days)
		rate := 0.0
		if i%2 == 0 {
			rate = 5000
		}
		for d := range reads {
			reads[d] = rate
		}
		tr.Files = append(tr.Files, trace.FileMeta{ID: i, SizeGB: 0.1})
		tr.Reads = append(tr.Reads, reads)
		tr.Writes = append(tr.Writes, writes)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// traceSource is a TraceSource over tr at the default reward, files starting
// hot.
func traceSource(tb testing.TB, tr *trace.Trace, histLen int) *TraceSource {
	tb.Helper()
	src, err := NewTraceSource(costmodel.New(pricing.Azure()), tr, histLen, mdp.DefaultReward(), pricing.Hot)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

func smallA3CConfig() A3CConfig {
	cfg := DefaultA3CConfig()
	cfg.Net = NetConfig{HistLen: 7, Filters: 8, Kernel: 4, Stride: 1, Hidden: 16}
	cfg.Workers = 2
	cfg.Seed = 7
	return cfg
}

func TestA3CLearnsPolarWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tr := polarTrace(t, 20, 21)
	model := costmodel.New(pricing.Azure())
	cfg := smallA3CConfig()
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := a3c.TrainFrom(traceSource(t, tr, cfg.Net.HistLen), 30000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps < 30000 || stats.Updates == 0 || stats.Episodes == 0 {
		t.Fatalf("stats %+v", stats)
	}
	agent := a3c.Snapshot()
	got, err := planBill(agent, model, tr, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	// Reference costs.
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
	hot, cool, archive := evalUniform(pricing.Hot), evalUniform(pricing.Cool), evalUniform(pricing.Archive)
	best := math.Min(hot, math.Min(cool, archive))
	if got >= hot {
		t.Fatalf("agent %v not better than all-hot %v (cool %v, archive %v)", got, hot, cool, archive)
	}
	// The mixed-optimal beats any uniform tier; the agent should get most of
	// that gap: demand it does at least as well as the best uniform policy.
	if got > best {
		t.Fatalf("agent %v worse than best uniform %v", got, best)
	}
	t.Logf("agent=%.4f hot=%.4f cool=%.4f archive=%.4f", got, hot, cool, archive)
}

// TestA3CSnapshotThreadSafeDuringTraining races every reader and writer of
// the global vectors — Snapshot, ParamVectors, SaveCheckpoint and
// SetParamVectors — against a running two-worker TrainFrom; under -race it
// checks the rounds' locking.
func TestA3CSnapshotThreadSafeDuringTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := traceSource(t, polarTrace(t, 4, 10), cfg.Net.HistLen)
	trained := make(chan error, 1)
	go func() {
		_, err := a3c.TrainFrom(src, 3000)
		trained <- err
	}()
	for {
		agent := a3c.Snapshot()
		s := mdp.State{ReadHistory: make([]float64, 7), WriteHistory: make([]float64, 7), SizeGB: 0.1}
		if !agent.Decide(&s).Valid() {
			t.Fatal("invalid decision from snapshot")
		}
		actor, critic := a3c.ParamVectors()
		if err := a3c.SaveCheckpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := a3c.SetParamVectors(actor, critic); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-trained:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}

func TestTrainRejectsBadArgs(t *testing.T) {
	a3c, err := NewA3C(smallA3CConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a3c.TrainFrom(nil, 10); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := a3c.TrainFrom(traceSource(t, polarTrace(t, 2, 8), 7), 0); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestTraceSourceValidation(t *testing.T) {
	model := costmodel.New(pricing.Azure())
	if _, err := NewTraceSource(model, &trace.Trace{Days: 5}, 7, mdp.DefaultReward(), pricing.Hot); err == nil {
		t.Error("empty trace accepted")
	}
	tr := polarTrace(t, 2, 10)
	if _, err := NewTraceSource(model, tr, 0, mdp.DefaultReward(), pricing.Hot); err == nil {
		t.Error("zero histLen accepted")
	}
	oneDay, err := tr.Window(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTraceSource(model, oneDay, 7, mdp.DefaultReward(), pricing.Hot); err == nil {
		t.Error("1-day trace accepted: it holds no decision")
	}
	// Planning the same day is not an error: day 0 is served in the initial
	// tier.
	asg := make(costmodel.Assignment, oneDay.NumFiles())
	agent := NewAgent(testNetConfig(), testNetConfig().BuildActor(rng.New(3)))
	if err := agent.DecideTrace(oneDay, 0, oneDay.NumFiles(), pricing.Cool, asg, 1); err != nil {
		t.Fatal(err)
	}
	for i := range asg {
		if len(asg[i]) != 1 || asg[i][0] != pricing.Cool {
			t.Fatalf("1-day plan of file %d: %v, want [cool]", i, asg[i])
		}
	}
	env := traceSource(t, tr, 7).NewEnv(rng.New(1))
	if env.Days() != 10 {
		t.Fatalf("episode days %d", env.Days())
	}
}

func TestNegCostRewardMode(t *testing.T) {
	rc := mdp.NegCostReward()
	if !(rc.Reward(0.1) < rc.Reward(0.01)) {
		t.Fatal("negcost reward not decreasing in cost")
	}
	if rc.Reward(0) != rc.Delta {
		t.Fatal("negcost at zero cost should be Delta")
	}
}

func BenchmarkA3CTrainStep(b *testing.B) {
	tr := polarTrace(b, 8, 14)
	cfg := smallA3CConfig()
	cfg.Workers = 1
	a3c, err := NewA3C(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := traceSource(b, tr, cfg.Net.HistLen)
	b.ResetTimer()
	if _, err := a3c.TrainFrom(src, int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAgentDecide(b *testing.B) {
	cfg := DefaultNetConfig()
	agent := NewAgent(cfg, cfg.BuildActor(rng.New(1)))
	s := mdp.State{
		ReadHistory:  make([]float64, cfg.HistLen),
		WriteHistory: make([]float64, cfg.HistLen),
		SizeGB:       0.1,
	}
	for i := range s.ReadHistory {
		s.ReadHistory[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Decide(&s)
	}
}
