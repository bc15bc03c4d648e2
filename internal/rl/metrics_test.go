package rl

import (
	"math"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/obs"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// TestTrainingMetricsAdvance runs a short TrainFrom with the default registry
// enabled and asserts the training instruments move: steps, updates,
// episodes, update latency, and the derived steps/sec gauge. Deltas,
// not absolutes — the registry is process-global.
func TestTrainingMetricsAdvance(t *testing.T) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })

	before := reg.Snapshot()
	cfg := smallA3CConfig()
	// A clip no gradient stays under: every update clips, so the gauge's
	// post-clip norm, min(pre-clip norm, GradClip), is GradClip exactly —
	// where re-measuring the clipped vector, as the gauge once did, reads
	// 0.0010000000000000002.
	cfg.GradClip = 1e-3
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(r *rng.RNG) *mdp.Env {
		e, _ := mdp.NewEnv(costmodel.New(pricing.Azure()), 0.1,
			[]float64{1, 2, 3, 4, 5, 6, 7, 8}, make([]float64, 8), pricing.Hot, 7, mdp.DefaultReward())
		return e
	}
	const steps = 200
	if _, err := a3c.TrainFrom(factorySource{f: factory}, steps); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()

	delta := func(id string) float64 { return after.Counter(id) - before.Counter(id) }
	if got := delta("minicost_train_steps_total"); got < steps {
		t.Errorf("steps delta = %v, want ≥ %d", got, steps)
	}
	if delta("minicost_train_updates_total") <= 0 {
		t.Error("updates counter did not advance")
	}
	if delta("minicost_train_episodes_total") <= 0 {
		t.Error("episode counter did not advance")
	}
	lat := after.Histogram("minicost_train_update_seconds")
	if lat.Count <= before.Histogram("minicost_train_update_seconds").Count {
		t.Error("update latency histogram did not advance")
	}
	if rate := after.Gauge("minicost_train_steps_per_second"); math.IsNaN(rate) || rate <= 0 {
		t.Errorf("steps/sec gauge = %v, want finite positive", rate)
	}
	// The grad-norm gauge holds the last update's post-clip norm.
	if norm := after.Gauge("minicost_train_grad_norm"); norm != cfg.GradClip {
		t.Errorf("grad norm gauge = %v, want the clip %v", norm, cfg.GradClip)
	}
}

// TestTrainFromPastTargetIsANoOp covers a TrainFrom whose target the trainer
// has already reached — what a chunk loop asks for when a round overshot its
// chunk: it returns zero stats without building a worker (no allocation at
// all) and leaves the steps/s gauge on the previous run's rate.
func TestTrainFromPastTargetIsANoOp(t *testing.T) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })

	a3c, err := NewA3C(smallA3CConfig())
	if err != nil {
		t.Fatal(err)
	}
	var src EnvSource = factorySource{f: func(r *rng.RNG) *mdp.Env {
		e, _ := mdp.NewEnv(costmodel.New(pricing.Azure()), 0.1,
			[]float64{1, 2, 3, 4, 5, 6, 7, 8}, make([]float64, 8), pricing.Hot, 7, mdp.DefaultReward())
		return e
	}}
	if _, err := a3c.TrainFrom(src, 200); err != nil {
		t.Fatal(err)
	}
	rate := reg.Snapshot().Gauge("minicost_train_steps_per_second")
	if math.IsNaN(rate) || rate <= 0 {
		t.Fatalf("steps/sec gauge after a run = %v, want finite positive", rate)
	}
	steps := a3c.Steps()
	for _, target := range []int64{1, steps / 2, steps} {
		var stats TrainStats
		allocs := testing.AllocsPerRun(5, func() {
			stats, err = a3c.TrainFrom(src, target)
		})
		if err != nil || stats != (TrainStats{}) {
			t.Fatalf("TrainFrom(%d) at %d steps = %+v, %v; want zero stats", target, steps, stats, err)
		}
		if allocs != 0 {
			t.Errorf("TrainFrom(%d) at %d steps allocates %.0f times, want 0", target, steps, allocs)
		}
	}
	if a3c.Steps() != steps {
		t.Fatalf("steps moved from %d to %d", steps, a3c.Steps())
	}
	if got := reg.Snapshot().Gauge("minicost_train_steps_per_second"); got != rate {
		t.Errorf("steps/sec gauge = %v after the no-op calls, want the last run's %v", got, rate)
	}
}

// TestVecTrainingMetricsAdvance covers the lockstep instruments at E=4: the
// envs gauge returns to its pre-run level once all workers exit
// (Add/defer-Add pairing), and the batched-forward timer advanced.
func TestVecTrainingMetricsAdvance(t *testing.T) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })

	before := reg.Snapshot()
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 4
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(r *rng.RNG) *mdp.Env {
		e, _ := mdp.NewEnv(costmodel.New(pricing.Azure()), 0.1,
			[]float64{1, 2, 3, 4, 5, 6, 7, 8}, make([]float64, 8), pricing.Hot, 7, mdp.DefaultReward())
		return e
	}
	const steps = 112 // 4 full 4×7 rollouts
	if _, err := a3c.TrainFrom(factorySource{f: factory}, steps); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()

	if got := after.Counter("minicost_train_steps_total") - before.Counter("minicost_train_steps_total"); got < steps {
		t.Errorf("steps delta = %v, want ≥ %d", got, steps)
	}
	if got, want := after.Gauge("minicost_train_envs"), before.Gauge("minicost_train_envs"); got != want {
		t.Errorf("envs gauge = %v after the run, want back at %v", got, want)
	}
	fwd := after.Histogram("minicost_train_vec_forward_seconds")
	if fwd.Count <= before.Histogram("minicost_train_vec_forward_seconds").Count {
		t.Error("vectorized forward timer did not advance")
	}
}

// TestWeightPacksMetric counts the weight packs a worker's replicas make,
// exactly: both are bound once per round, so each packs once per update
// however many forwards it runs and at any lockstep width — the actor at its
// first E-row rollout window, the critic at its E-row bootstrap batch, whose
// pack its arena forward reuses. Before the pack outlived the forward that
// built it, the first case read ten per update.
func TestWeightPacksMetric(t *testing.T) {
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })

	const packs = "minicost_train_weight_packs_total"
	for _, c := range []struct {
		envs      int
		perUpdate float64
	}{
		{16, 2}, // 16-row windows, 112-row arena: one per network per round
		{4, 2},  // 4-row windows, 28-row arena: the same
		{2, 2},  // 2-row windows, 14-row arena: the same
		{1, 2},  // 1-row windows, 7-row arena: the same
	} {
		a3c, src := harnessTrainer(t, smallA3CConfig().Net, 1, c.envs)
		before := reg.Snapshot().Counter(packs)
		const updates = 3
		stats, err := a3c.TrainFrom(src, int64(updates*c.envs*a3c.Config().NSteps))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Updates != updates {
			t.Fatalf("E=%d: %d updates, want %d", c.envs, stats.Updates, updates)
		}
		if got, want := reg.Snapshot().Counter(packs)-before, c.perUpdate*updates; got != want {
			t.Errorf("E=%d: %s moved by %v over %d updates, want %v", c.envs, packs, got, updates, want)
		}
	}
}
