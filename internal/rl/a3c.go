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
	// Workers is the number of asynchronous actor-learners.
	Workers int
	// EnvsPerWorker is the number of environments each worker drives in
	// lockstep (vectrain.go); 0 means 1. One E-row forward selects actions
	// for every environment at once, one batched pass bootstraps all critic
	// values, and the n-step update accumulates over E×NSteps transitions in
	// one backward pass per network. Episodes that end mid-rollout are reset
	// in place and the return recursion restarts at the boundary, so
	// rollouts always carry the full E×NSteps transitions. Each environment
	// samples episodes and actions from its own RNG substream split from the
	// worker seed, so runs are seed-deterministic at Workers=1.
	EnvsPerWorker int
	// Parallelism bounds the intra-update GEMM fan-out: it is the workers
	// argument handed to every batched forward and backward pass inside one
	// update. The default 0 (like 1) runs updates serially —
	// A3C's parallelism conventionally comes from Workers — but a
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
	// Optimizer selects "rmsprop" (A3C's default), "adam" or "sgd".
	Optimizer string
	// FinalLRFraction linearly anneals the learning rate to this fraction
	// of LearningRate over a Train call (1 disables annealing). Late-stage
	// annealing settles the policy oscillation that a constant step size
	// sustains.
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
		Optimizer:        "rmsprop",
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
	case c.FinalLRFraction < 0 || c.FinalLRFraction > 1:
		return fmt.Errorf("rl: FinalLRFraction %v", c.FinalLRFraction)
	}
	switch c.Optimizer {
	case "rmsprop", "adam", "sgd":
	default:
		return fmt.Errorf("rl: unknown optimizer %q", c.Optimizer)
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

func (c A3CConfig) newOptimizer() nn.Optimizer {
	switch c.Optimizer {
	case "adam":
		return nn.NewAdam(c.LearningRate)
	case "sgd":
		return nn.NewSGD(c.LearningRate)
	default:
		return nn.NewRMSProp(c.LearningRate)
	}
}

// A3C is the asynchronous advantage actor–critic trainer of Fig. 6: a
// global parameter server (actor + critic vectors and shared optimizer
// state) that asynchronous workers pull parameters from and push
// accumulated gradients to.
//
// The global vectors live in a double-buffered store (params.go): the
// current buffer is published through an atomic pointer, every optimizer
// apply writes the updated vectors into the next buffer and swaps it in, and
// superseded buffers are recycled once their readers drain. Synchronization
// is therefore two-tier: a.mu serializes the apply (a short critical section
// per update), while worker pulls bind the published buffer lock-free and
// never convoy on the writers' lock.
type A3C struct {
	cfg A3CConfig

	mu        sync.Mutex
	actorOpt  nn.Optimizer
	criticOpt nn.Optimizer

	// snap is the published parameter buffer (the master copy); retired
	// (guarded by mu) holds superseded buffers awaiting reader drain.
	snap    atomic.Pointer[paramSnap]
	retired []*paramSnap

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
	criticOpt := cfg.newOptimizer()
	criticOpt.SetLearningRate(cfg.LearningRate * cfg.CriticLRMult)
	a := &A3C{
		cfg:         cfg,
		actorOpt:    cfg.newOptimizer(),
		criticOpt:   criticOpt,
		protoActor:  actor,
		protoCritic: critic,
	}
	a.snap.Store(&paramSnap{actor: actor.ParamVector(), critic: critic.ParamVector()})
	return a, nil
}

// Config returns the training configuration.
func (a *A3C) Config() A3CConfig { return a.cfg }

// Steps returns the number of environment steps taken so far.
func (a *A3C) Steps() int64 { return a.steps.Load() }

// Snapshot returns a serving Agent with the current global actor weights.
func (a *A3C) Snapshot() *Agent {
	actor := a.protoActor.Clone()
	a.mu.Lock()
	actor.SetParamVector(a.snap.Load().actor)
	a.mu.Unlock()
	return NewAgent(a.cfg.Net, actor)
}

// CriticSnapshot returns a copy of the global critic network (diagnostics
// and the ablation benches use it to inspect learned values).
func (a *A3C) CriticSnapshot() *nn.Network {
	critic := a.protoCritic.Clone()
	a.mu.Lock()
	critic.SetParamVector(a.snap.Load().critic)
	a.mu.Unlock()
	return critic
}

// EnvFactory supplies training episodes; each call must return a fresh (or
// reset) environment owned exclusively by the calling worker. Factories are
// called concurrently and must be safe for that.
type EnvFactory func(r *rng.RNG) *mdp.Env

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

// factorySource adapts an EnvFactory to EnvSource; ReinitEnv falls back to
// building a fresh environment and copying it over the old one.
type factorySource struct{ f EnvFactory }

func (s factorySource) NewEnv(r *rng.RNG) *mdp.Env { return s.f(r) }

func (s factorySource) ReinitEnv(r *rng.RNG, env *mdp.Env) {
	fresh := s.f(r)
	// The old env may be running on recycled observation buffers; the copy
	// must carry that mode (and fresh buffers) over, not silently drop it.
	fresh.EnableStateReuse()
	*env = *fresh
}

// Train runs the asynchronous workers until the global step counter reaches
// totalSteps (Algorithm 1's outer loop). It returns aggregate statistics.
func (a *A3C) Train(factory EnvFactory, totalSteps int64) (TrainStats, error) {
	if factory == nil {
		return TrainStats{}, errors.New("rl: nil env factory")
	}
	return a.TrainFrom(factorySource{f: factory}, totalSteps)
}

// TrainFrom is Train generalized over an EnvSource; sources that implement
// in-place episode re-targeting (TraceSource) keep worker episode turnover
// allocation-free, which the engine's alloc gates require.
func (a *A3C) TrainFrom(src EnvSource, totalSteps int64) (TrainStats, error) {
	if src == nil {
		return TrainStats{}, errors.New("rl: nil env source")
	}
	if totalSteps <= 0 {
		return TrainStats{}, fmt.Errorf("rl: totalSteps %d", totalSteps)
	}
	trainRate.begin(a)
	defer trainRate.finish(a)
	var wg sync.WaitGroup
	stats := make([]TrainStats, a.cfg.Workers)
	for w := 0; w < a.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats[w] = a.vecWorker(w, src, totalSteps)
		}(w)
	}
	wg.Wait()
	var total TrainStats
	for _, s := range stats {
		total.Steps += s.Steps
		total.Episodes += s.Episodes
		total.RewardSum += s.RewardSum
		total.CostSum += s.CostSum
		total.Updates += s.Updates
	}
	return total, nil
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

// pushUpdate clips the worker's accumulated flat gradients and applies them
// to the global parameters (Eq. 12) under the apply lock, annealing the
// learning rate by global progress first. Every worker update ends here.
func (a *A3C) pushUpdate(aGrad, cGrad []float64, totalSteps int64) {
	nn.ClipGrads(aGrad, a.cfg.GradClip)
	nn.ClipGrads(cGrad, a.cfg.GradClip)
	if obs.Default().Enabled() {
		// The O(params) norm is only worth computing when someone is
		// watching; Set self-gates but would not skip the sqrt-sum.
		trainMet.gradNorm.Set(math.Sqrt(mat.SumSquares(aGrad)))
	}
	sw := trainMet.updateLat.Start()
	a.mu.Lock()
	if f := a.cfg.FinalLRFraction; f > 0 && f < 1 {
		// Linear LR annealing over this Train call's step budget.
		progress := float64(a.steps.Load()) / float64(totalSteps)
		if progress > 1 {
			progress = 1
		}
		scale := 1 - (1-f)*progress
		a.actorOpt.SetLearningRate(a.cfg.LearningRate * scale)
		a.criticOpt.SetLearningRate(a.cfg.LearningRate * a.cfg.CriticLRMult * scale)
	}
	a.applyLocked(aGrad, cGrad)
	a.mu.Unlock()
	sw.Stop()
	trainMet.updates.Inc()
}
