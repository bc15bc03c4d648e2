package rl

import (
	"math"
	"sync"
	"time"

	"minicost/internal/obs"
)

// trainMetrics are the A3C trainer's obs instruments (DESIGN.md §12),
// shared by every trainer instance in the process. They live in the
// default registry, which is off outside daemons, so the per-update
// recording below costs a handful of atomic loads until a binary opts in.
type trainMetrics struct {
	steps     *obs.Counter
	updates   *obs.Counter
	episodes  *obs.Counter
	updateLat *obs.Timer
	gradNorm  *obs.Gauge
	// Lockstep instruments (DESIGN.md §10): envs counts the environments
	// currently driven in lockstep across all workers; vecForward times the
	// batched action-selection forward (one E-row GEMM per lockstep step);
	// weightPacks counts the times a worker's replica packed its weights
	// into GEMM kernel layout — once per network per round when the arena
	// reaches the packed kernels, never when it does not.
	envs        *obs.Gauge
	vecForward  *obs.Timer
	weightPacks *obs.Counter
}

var trainMet = func() trainMetrics {
	reg := obs.Default()
	m := trainMetrics{
		steps: reg.Counter("minicost_train_steps_total",
			"Environment steps taken by the A3C workers."),
		updates: reg.Counter("minicost_train_updates_total",
			"Worker gradients applied to the global parameters."),
		episodes: reg.Counter("minicost_train_episodes_total",
			"Training episodes completed."),
		updateLat: reg.Timer("minicost_train_update_seconds",
			"Per-update optimizer apply latency: one worker's gradients applied to the global parameters."),
		gradNorm: reg.Gauge("minicost_train_grad_norm",
			"Post-clip L2 norm of the actor gradient, most recent update."),
		envs: reg.Gauge("minicost_train_envs",
			"Environments currently driven in lockstep by the training workers."),
		vecForward: reg.Timer("minicost_train_vec_forward_seconds",
			"Batched action-selection forward latency of the lockstep rollout."),
		weightPacks: reg.Counter("minicost_train_weight_packs_total",
			"Forward weight packs made by the training workers' replicas: one per network per round."),
	}
	reg.GaugeFunc("minicost_train_steps_per_second",
		"Throughput of the current (or last finished) Train call; NaN before the first.",
		trainRate.value)
	return m
}()

// trainRateState derives steps/sec for the most recent Train call: Train
// publishes its start point on entry and freezes the window on return, so
// mid-run scrapes see a live rate and later ones the run's average.
type trainRateState struct {
	mu        sync.Mutex
	a3c       *A3C
	start     time.Time
	end       time.Time // zero while the run is live
	baseSteps int64
}

var trainRate trainRateState

func (t *trainRateState) begin(a *A3C) {
	t.mu.Lock()
	t.a3c, t.start, t.end, t.baseSteps = a, time.Now(), time.Time{}, a.Steps() //minicost:allow-wallclock steps/sec instrumentation, never feeds decisions
	t.mu.Unlock()
}

func (t *trainRateState) finish(a *A3C) {
	t.mu.Lock()
	if t.a3c == a && t.end.IsZero() {
		t.end = time.Now() //minicost:allow-wallclock steps/sec instrumentation, never feeds decisions
	}
	t.mu.Unlock()
}

func (t *trainRateState) value() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.a3c == nil {
		return math.NaN()
	}
	until := t.end
	if until.IsZero() {
		until = time.Now() //minicost:allow-wallclock steps/sec instrumentation, never feeds decisions
	}
	elapsed := until.Sub(t.start).Seconds()
	if elapsed <= 0 {
		return math.NaN()
	}
	return float64(t.a3c.Steps()-t.baseSteps) / elapsed
}
