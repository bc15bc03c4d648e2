package rl

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/obs"
	"minicost/internal/par"
	"minicost/internal/rng"
)

// A3CConfig configures training. Defaults follow §6.1: learning rate 0.0027
// (Fig. 9 finds ~0.0028 optimal), greedy rate ε = 0.1, and the paper's
// network architecture.
type A3CConfig struct {
	Net NetConfig
	// LearningRate is swept by Fig. 9.
	LearningRate float64
	// Gamma discounts future rewards; the paper optimizes over a 7-day
	// horizon, so the default 0.9 keeps ~half the mass within a week.
	Gamma float64
	// Epsilon is the greedy (exploration) rate swept by Fig. 10.
	Epsilon float64
	// ExploreHold keeps an ε-exploration action for this many consecutive
	// days. Tier economics mix slowly — entering archive pays a transition
	// fee that only amortises over days of occupancy — so one-step random
	// actions always look bad and the policy never discovers cheap tiers.
	// Sticky exploration samples sustained occupancy instead.
	ExploreHold int
	// EntropyBeta weighs the entropy bonus that keeps π from collapsing.
	EntropyBeta float64
	// LogitDecay adds an L2 pull on the actor's output logits. The entropy
	// bonus alone cannot prevent saturation: at π ≈ 1 both the policy and
	// entropy gradients vanish, and RMSProp amplifies whatever residual
	// drift remains, so logits run away to magnitudes the policy can never
	// recover from. The decay term is the one gradient that *grows* with
	// logit magnitude, bounding saturation at |z| ≈ (typical grad)/decay.
	LogitDecay float64
	// NSteps is the rollout length per update (n-step advantage).
	NSteps int
	// Workers is the number of actor-learners. Training runs in synchronous
	// rounds: every worker rolls out from the same parameters, then the
	// trainer applies the workers' gradients one after another in worker
	// order, so a run is a pure function of (config, seed) at every Workers.
	Workers int
	// EnvsPerWorker is the number of environments each worker drives in
	// lockstep (vectrain.go); 0 means 1. One E-row forward selects actions
	// for every environment at once, one batched pass bootstraps all critic
	// values, and the n-step update accumulates over E×NSteps transitions in
	// one backward pass per network. Episodes that end mid-rollout are reset
	// in place and the return recursion restarts at the boundary, so
	// rollouts always carry the full E×NSteps transitions. Each environment
	// samples episodes and actions from its own RNG substream split from the
	// worker seed.
	EnvsPerWorker int
	// Parallelism bounds the intra-update GEMM fan-out: it is the workers
	// argument handed to every batched forward and backward pass inside one
	// update. The default 0 (like 1) runs updates serially —
	// a round's workers already roll out concurrently — but a
	// single-worker trainer on a big machine can parallelize inside each
	// update instead. Any value leaves training bitwise unchanged: the
	// parallel kernels shard only independent output elements (see mat).
	Parallelism int
	// GradClip bounds the global-update L2 norm; 0 disables.
	GradClip float64
	// NormalizeRewards divides rewards by a running RMS estimate before
	// computing returns. Eq. 4's reciprocal reward spans many orders of
	// magnitude across files (idle archive days earn thousands of times the
	// reward of busy hot days); without normalisation the early positive
	// advantages collapse the policy onto whatever action is sampled first.
	NormalizeRewards bool
	// AdvClip bounds the per-step advantage magnitude used in the policy
	// gradient (applied after reward normalisation); 0 disables.
	AdvClip float64
	// CriticLRMult scales the critic's learning rate relative to the
	// actor's. The critic must track value targets faster than the policy
	// drifts or early advantages stay one-sided; > 1 is standard.
	CriticLRMult float64
	// FinalLRFraction linearly anneals the learning rate to this fraction
	// of LearningRate over a TrainFrom call, in (0, 1]; 1 disables
	// annealing. Late-stage annealing settles the policy oscillation that a
	// constant step size sustains.
	FinalLRFraction float64
	Seed            uint64
}

// DefaultA3CConfig returns the paper's training configuration.
func DefaultA3CConfig() A3CConfig {
	return A3CConfig{
		Net:              DefaultNetConfig(),
		LearningRate:     0.0027,
		Gamma:            0.9,
		Epsilon:          0.1,
		ExploreHold:      5,
		EntropyBeta:      0.01,
		LogitDecay:       0.01,
		NSteps:           7,
		Workers:          4,
		GradClip:         5,
		NormalizeRewards: true,
		AdvClip:          3,
		CriticLRMult:     5,
		FinalLRFraction:  0.1,
	}
}

// Validate checks the configuration.
func (c A3CConfig) Validate() error {
	if err := c.Net.Validate(); err != nil {
		return err
	}
	switch {
	case c.LearningRate <= 0:
		return fmt.Errorf("rl: learning rate %v", c.LearningRate)
	case c.Gamma < 0 || c.Gamma >= 1:
		return fmt.Errorf("rl: gamma %v outside [0,1)", c.Gamma)
	case c.Epsilon < 0 || c.Epsilon > 1:
		return fmt.Errorf("rl: epsilon %v", c.Epsilon)
	case c.ExploreHold < 0:
		return fmt.Errorf("rl: ExploreHold %d", c.ExploreHold)
	case c.NSteps <= 0:
		return fmt.Errorf("rl: NSteps %d", c.NSteps)
	case c.Workers <= 0:
		return fmt.Errorf("rl: Workers %d", c.Workers)
	case c.EnvsPerWorker < 0:
		return fmt.Errorf("rl: EnvsPerWorker %d", c.EnvsPerWorker)
	case c.Parallelism < 0:
		return fmt.Errorf("rl: Parallelism %d", c.Parallelism)
	case c.EntropyBeta < 0:
		return fmt.Errorf("rl: EntropyBeta %v", c.EntropyBeta)
	case c.LogitDecay < 0:
		return fmt.Errorf("rl: LogitDecay %v", c.LogitDecay)
	case c.GradClip < 0:
		return fmt.Errorf("rl: GradClip %v", c.GradClip)
	case c.AdvClip < 0:
		return fmt.Errorf("rl: AdvClip %v", c.AdvClip)
	case c.CriticLRMult <= 0:
		return fmt.Errorf("rl: CriticLRMult %v", c.CriticLRMult)
	case c.FinalLRFraction <= 0 || c.FinalLRFraction > 1:
		return fmt.Errorf("rl: FinalLRFraction %v outside (0,1]", c.FinalLRFraction)
	}
	return nil
}

// envsPerWorker resolves the lockstep width (0 means 1).
func (c A3CConfig) envsPerWorker() int {
	if c.EnvsPerWorker <= 0 {
		return 1
	}
	return c.EnvsPerWorker
}

// parallelism resolves the intra-update fan-out (0 means serial).
func (c A3CConfig) parallelism() int {
	if c.Parallelism <= 0 {
		return 1
	}
	return c.Parallelism
}

// A3C is the advantage actor–critic trainer of Fig. 6: the global actor and
// critic vectors with their optimizer state, trained by Workers
// actor-learners in synchronous rounds (vectrain.go). The paper's workers
// are asynchronous; synchronous rounds (A2C) are reported to match them
// (Wu et al., ACKTR) and make every worker count reproducible.
//
// mu guards the global vectors: a round's rollouts and every reader
// (Snapshot, ParamVectors, SaveCheckpoint) hold it shared, while the
// round's apply and every writer (SetParamVectors, LoadCheckpoint) hold it
// exclusively. The vectors never move: applies and restores write them in
// place.
type A3C struct {
	cfg A3CConfig

	mu            sync.RWMutex
	actor, critic []float64
	actorOpt      nn.Optimizer
	criticOpt     nn.Optimizer

	protoActor  *nn.Network
	protoCritic *nn.Network

	steps atomic.Int64
}

// NewA3C initializes the global networks and optimizers.
func NewA3C(cfg A3CConfig) (*A3C, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	actor := cfg.Net.BuildActor(r.Split(1))
	critic := cfg.Net.BuildCritic(r.Split(2))
	return &A3C{
		cfg:         cfg,
		actor:       actor.ParamVector(),
		critic:      critic.ParamVector(),
		actorOpt:    nn.NewRMSProp(cfg.LearningRate),
		criticOpt:   nn.NewRMSProp(cfg.LearningRate * cfg.CriticLRMult),
		protoActor:  actor,
		protoCritic: critic,
	}, nil
}

// Config returns the training configuration.
func (a *A3C) Config() A3CConfig { return a.cfg }

// Steps returns the number of environment steps taken so far.
func (a *A3C) Steps() int64 { return a.steps.Load() }

// Snapshot returns a serving Agent with the current global actor weights.
func (a *A3C) Snapshot() *Agent {
	actor := a.protoActor.Clone()
	a.mu.RLock()
	actor.SetParamVector(a.actor)
	a.mu.RUnlock()
	return NewAgent(a.cfg.Net, actor)
}

// EnvSource supplies training episodes to workers. NewEnv returns a fresh
// environment owned exclusively by the caller; ReinitEnv re-targets an
// environment the caller already owns onto a new episode in place, which
// lets sources that support mdp.Env.Reinit (TraceSource) keep episode
// turnover allocation-free. Both methods are called concurrently from every
// worker and must be safe for that; both draw all randomness from r so the
// episode sequence is a pure function of the worker's RNG stream.
type EnvSource interface {
	NewEnv(r *rng.RNG) *mdp.Env
	ReinitEnv(r *rng.RNG, env *mdp.Env)
}

// TrainFrom runs synchronous rounds until the global step counter reaches
// totalSteps (Algorithm 1's outer loop) and returns aggregate statistics.
// Sources that implement in-place episode re-targeting (TraceSource) keep
// worker episode turnover allocation-free, which the engine's alloc gates
// require.
func (a *A3C) TrainFrom(src EnvSource, totalSteps int64) (TrainStats, error) {
	if src == nil {
		return TrainStats{}, errors.New("rl: nil env source")
	}
	if totalSteps <= 0 {
		return TrainStats{}, fmt.Errorf("rl: totalSteps %d", totalSteps)
	}
	if a.steps.Load() >= totalSteps {
		// Nothing to train — a chunk loop whose last round overshot its
		// target asks for this. Build no worker (at the paper's network
		// that is ≈40 MB of replica scratch and every environment) and
		// leave the steps/s gauge on the last run's rate.
		return TrainStats{}, nil
	}
	trainRate.begin(a)
	defer trainRate.finish(a)
	ws := make([]*worker, a.cfg.Workers)
	for id := range ws {
		ws[id] = a.newWorker(id, src)
	}
	envs := float64(a.cfg.Workers * a.cfg.envsPerWorker())
	trainMet.envs.Add(envs)
	defer trainMet.envs.Add(-envs)
	for a.steps.Load() < totalSteps {
		a.round(ws, totalSteps)
	}
	var total TrainStats
	for _, w := range ws {
		total.Steps += w.st.Steps
		total.Episodes += w.st.Episodes
		total.RewardSum += w.st.RewardSum
		total.CostSum += w.st.CostSum
		total.Updates += w.st.Updates
	}
	return total, nil
}

// round runs one synchronous round: every worker rolls out from the global
// vectors — concurrently, except that a single worker runs inline — and
// then the workers' gradients are applied in worker order.
func (a *A3C) round(ws []*worker, totalSteps int64) {
	a.mu.RLock()
	if len(ws) == 1 {
		ws[0].rollout()
	} else {
		par.ForShards(len(ws), len(ws), func(s int) { ws[s].rollout() })
	}
	a.mu.RUnlock()

	a.mu.Lock()
	a.annealLocked(totalSteps)
	for _, w := range ws {
		a.stepLocked(w.aGrad, w.cGrad)
		w.st.Updates++
	}
	a.mu.Unlock()
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Steps    int64
	Episodes int64
	Updates  int64
	// RewardSum / CostSum accumulate per-step reward and cost; divide by
	// Steps for means.
	RewardSum float64
	CostSum   float64
}

// MeanReward returns the average per-step reward.
func (s TrainStats) MeanReward() float64 {
	if s.Steps == 0 {
		return 0
	}
	return s.RewardSum / float64(s.Steps)
}

// rewardNorm standardizes rewards with running mean/variance estimates so
// returns stay centered and O(1) regardless of the reward function's scale.
// Centering matters as much as scaling: with raw Eq. 4 rewards every action
// earns a large positive return before the critic converges, so every
// sampled action is reinforced and the policy saturates on noise.
type rewardNorm struct {
	mean, vr float64
	seen     bool
}

func (n *rewardNorm) normalize(r float64) float64 {
	if !n.seen {
		n.mean = r
		n.vr = r*r*0.01 + 1e-6
		n.seen = true
	} else {
		d := r - n.mean
		n.mean += 0.001 * d
		n.vr = 0.999*n.vr + 0.001*d*d
	}
	return (r - n.mean) / math.Sqrt(n.vr+1e-12)
}

// annealLocked sets both learning rates for the round about to be applied:
// a linear anneal over this TrainFrom call's step budget, by the step count
// after the round. Called with a.mu held exclusively.
func (a *A3C) annealLocked(totalSteps int64) {
	f := a.cfg.FinalLRFraction
	if f >= 1 {
		return
	}
	progress := float64(a.steps.Load()) / float64(totalSteps)
	if progress > 1 {
		progress = 1
	}
	scale := 1 - (1-f)*progress
	a.actorOpt.SetLearningRate(a.cfg.LearningRate * scale)
	a.criticOpt.SetLearningRate(a.cfg.LearningRate * a.cfg.CriticLRMult * scale)
}

// stepLocked clips one worker's flat gradients and applies them to the
// global vectors in place (Eq. 12): the optimizers take the clip scale as
// they read the gradients, which stay as the worker left them. Called with
// a.mu held exclusively.
func (a *A3C) stepLocked(aGrad, cGrad []float64) {
	norm, aScale := nn.ClipScale(aGrad, a.cfg.GradClip)
	_, cScale := nn.ClipScale(cGrad, a.cfg.GradClip)
	if obs.Default().Enabled() {
		// The post-clip norm is the clip's own measure, capped; only an
		// unclipped trainer pays an O(params) pass for it, and only when
		// someone is watching (Set self-gates but would not skip the sum).
		if a.cfg.GradClip > 0 {
			norm = min(norm, a.cfg.GradClip)
		} else {
			norm = math.Sqrt(mat.SumSquares(aGrad))
		}
		trainMet.gradNorm.Set(norm)
	}
	sw := trainMet.updateLat.Start()
	a.actorOpt.Step(a.actor, aGrad, aScale)
	a.criticOpt.Step(a.critic, cGrad, cScale)
	sw.Stop()
	trainMet.updates.Inc()
}
