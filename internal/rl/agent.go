// Package rl implements MiniCost's reinforcement-learning machinery: the
// actor–critic networks (§6.1's architecture), the A3C training loop of
// Fig. 6 / Algorithm 1 — its workers run in synchronous rounds — with
// ε-greedy exploration, and the batched decider that serves a trained agent.
//
// Training steps mdp.Env episodes, which bill and reward every file-day.
// Deciding does not bill: DecideTrace/PlanTrace build each day's state
// straight from the trace and the tiers already chosen, and callers that
// want the plan's price take it once from costmodel (policy.Score).
package rl

import (
	"fmt"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// NetConfig describes the agent networks. The paper's setting (§6.1) is 128
// conv filters of size 4 with stride 1 over the frequency history, and a
// 128-neuron hidden layer; Fig. 11 sweeps Filters/Hidden from 4 to 128.
type NetConfig struct {
	HistLen int // days of request history in the state
	Filters int
	Kernel  int
	Stride  int
	Hidden  int
}

// DefaultNetConfig returns the paper's architecture over a 14-day history.
func DefaultNetConfig() NetConfig {
	return NetConfig{HistLen: 14, Filters: 128, Kernel: 4, Stride: 1, Hidden: 128}
}

// Validate checks the architecture is constructible.
func (c NetConfig) Validate() error {
	if c.HistLen <= 0 || c.Filters <= 0 || c.Kernel <= 0 || c.Stride <= 0 || c.Hidden <= 0 {
		return fmt.Errorf("rl: non-positive NetConfig field: %+v", c)
	}
	if c.Kernel > mdp.HistoryFeatureDim(c.HistLen) {
		return fmt.Errorf("rl: kernel %d larger than history block %d", c.Kernel, mdp.HistoryFeatureDim(c.HistLen))
	}
	return nil
}

// featureDim returns the network input dimension.
func (c NetConfig) featureDim() int { return mdp.FeatureDim(c.HistLen) }

// build constructs one head: conv front-end over the (two-channel,
// interleaved) history block, static features concatenated, one hidden
// layer, outDim outputs.
func (c NetConfig) build(r *rng.RNG, outDim int) *nn.Network {
	head := mdp.HistoryFeatureDim(c.HistLen)
	front := nn.NewNetwork(nn.NewConv1D(r, head, c.Filters, c.Kernel, c.Stride), nn.NewReLU())
	concat := front.OutDim(head) + (c.featureDim() - head)
	return nn.NewNetwork(
		nn.NewSplit(head, front),
		nn.NewDense(r, concat, c.Hidden),
		nn.NewReLU(),
		nn.NewDense(r, c.Hidden, outDim),
	)
}

// BuildActor returns a policy network emitting one logit per tier.
func (c NetConfig) BuildActor(r *rng.RNG) *nn.Network { return c.build(r, mdp.NumActions) }

// BuildCritic returns a value network emitting a scalar V(s).
func (c NetConfig) BuildCritic(r *rng.RNG) *nn.Network { return c.build(r, 1) }

// Agent is a trained (or training-snapshot) policy usable for serving: it
// maps a state to a tier. Neither Decide nor DecideBatch is safe for
// concurrent use (the network caches activations and the agent holds batch
// scratch); use a ReplicaPool (or Clone) per goroutine.
type Agent struct {
	Net   NetConfig
	actor *nn.Network

	feats  *mat.Matrix    // reused batch feature matrix (Decide, DecideTrace)
	tiers  []pricing.Tier // reused batch decision buffer
	window mdp.State      // reused history window (DecideTrace)
	logs   []float64      // reused per-file log1p read series (DecideTrace)
}

// NewAgent wraps an actor network.
func NewAgent(cfg NetConfig, actor *nn.Network) *Agent {
	return &Agent{Net: cfg, actor: actor}
}

// Decide returns the greedy (argmax-probability) tier for the state: a
// one-row DecideBatch over the agent's reused feature matrix.
func (a *Agent) Decide(s *mdp.State) pricing.Tier {
	a.feats = mat.EnsureShape(a.feats, 1, mdp.FeatureDim(len(s.ReadHistory)))
	s.FeaturesInto(a.feats.Row(0))
	var tier [1]pricing.Tier
	a.DecideBatch(a.feats, tier[:], 1)
	return tier[0]
}

// Clone returns an independent copy safe for use in another goroutine. The
// clone of a pooled replica is another replica: it shares the pool's weights
// (see nn.Network.Clone).
func (a *Agent) Clone() *Agent {
	return &Agent{Net: a.Net, actor: a.actor.Clone()}
}

// ParamVector returns a copy of the actor's flat parameter vector
// (diagnostics and the training-equivalence tests compare policies by it).
func (a *Agent) ParamVector() []float64 { return a.actor.ParamVector() }
