package rl

import (
	"fmt"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
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

// NewTraceSource validates the inputs and builds a TraceSource. Episodes
// decide days 1 onward (mdp.Env), so a trace under two days is an error.
func NewTraceSource(model *costmodel.Model, tr *trace.Trace, histLen int, reward mdp.RewardConfig, initial pricing.Tier) (*TraceSource, error) {
	if tr.NumFiles() == 0 {
		return nil, fmt.Errorf("rl: empty trace")
	}
	if tr.Days < 2 {
		return nil, fmt.Errorf("rl: a %d-day trace holds no decision", tr.Days)
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
