package rl

import (
	"fmt"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/par"
	"minicost/internal/pricing"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// TraceSource samples per-file episodes from a trace: each episode picks a
// uniformly random file and steps through its whole daily series under the
// given cost model and reward (the paper's training regime: "the agent takes
// the real-time data or historical data as input", per-file decisions). It
// implements EnvSource with an allocation-free ReinitEnv (mdp.Env.Reinit
// re-targets the worker's environment in place), which is what keeps episode
// turnover off the training engine's hot path.
type TraceSource struct {
	model   *costmodel.Model
	tr      *trace.Trace
	histLen int
	reward  mdp.RewardConfig
	initial pricing.Tier
}

// NewTraceSource validates the inputs and builds a TraceSource.
func NewTraceSource(model *costmodel.Model, tr *trace.Trace, histLen int, reward mdp.RewardConfig, initial pricing.Tier) (*TraceSource, error) {
	if tr.NumFiles() == 0 {
		return nil, fmt.Errorf("rl: empty trace")
	}
	if histLen <= 0 {
		return nil, fmt.Errorf("rl: histLen %d", histLen)
	}
	return &TraceSource{model: model, tr: tr, histLen: histLen, reward: reward, initial: initial}, nil
}

// NewEnv draws a random file and returns a fresh environment over it.
func (s *TraceSource) NewEnv(r *rng.RNG) *mdp.Env {
	i := r.Intn(s.tr.NumFiles())
	env, err := mdp.NewEnv(s.model, s.tr.Files[i].SizeGB, s.tr.Reads[i], s.tr.Writes[i], s.initial, s.histLen, s.reward)
	if err != nil {
		// Generate/Validate guarantee per-file series are well formed;
		// reaching here means the trace was corrupted after validation.
		panic(fmt.Sprintf("rl: trace env: %v", err))
	}
	return env
}

// ReinitEnv re-targets env onto a freshly drawn file in place, consuming
// exactly the randomness NewEnv would (one file draw), so swapping the two
// leaves a worker's episode sequence unchanged.
func (s *TraceSource) ReinitEnv(r *rng.RNG, env *mdp.Env) {
	i := r.Intn(s.tr.NumFiles())
	if err := env.Reinit(s.model, s.tr.Files[i].SizeGB, s.tr.Reads[i], s.tr.Writes[i], s.initial, s.histLen, s.reward); err != nil {
		panic(fmt.Sprintf("rl: trace env: %v", err))
	}
}

// TraceFactory returns an EnvFactory over a TraceSource's episode
// distribution; new code should pass NewTraceSource to TrainFrom instead,
// which also unlocks allocation-free episode turnover.
func TraceFactory(model *costmodel.Model, tr *trace.Trace, histLen int, reward mdp.RewardConfig, initial pricing.Tier) (EnvFactory, error) {
	src, err := NewTraceSource(model, tr, histLen, reward, initial)
	if err != nil {
		return nil, err
	}
	return src.NewEnv, nil
}

// EvaluateAgent runs the greedy policy over every file in the trace and
// returns the total bill — the serving-side counterpart of training, used by
// experiments and tests to score a snapshot. It steps files day-major in
// batched chunks (Agent.DecideTrace) with a pooled replica per worker, which
// is what keeps per-checkpoint validation affordable during training.
func EvaluateAgent(agent *Agent, model *costmodel.Model, tr *trace.Trace, histLen int, initial pricing.Tier) (costmodel.Breakdown, costmodel.Assignment, error) {
	n := tr.NumFiles()
	asg := make(costmodel.Assignment, n)
	reward := mdp.DefaultReward()
	pool := NewReplicaPool(agent)
	chunkErrs := make([]error, (n+DefaultBatchRows-1)/DefaultBatchRows)
	par.ForBatched(n, DefaultBatchRows, 0, func(lo, hi int) {
		rep := pool.Get()
		defer pool.Put(rep)
		if err := rep.DecideTrace(model, tr, lo, hi, initial, histLen, reward, asg, 1); err != nil {
			chunkErrs[lo/DefaultBatchRows] = err
		}
	})
	for _, err := range chunkErrs {
		if err != nil {
			return costmodel.Breakdown{}, nil, err
		}
	}
	init := make([]pricing.Tier, tr.NumFiles())
	for i := range init {
		init[i] = initial
	}
	bds, err := model.TraceCost(tr, asg, init, 0)
	if err != nil {
		return costmodel.Breakdown{}, nil, err
	}
	return costmodel.SumBreakdowns(bds), asg, nil
}
