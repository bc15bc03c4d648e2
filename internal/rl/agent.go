// Package rl implements MiniCost's reinforcement-learning machinery: the
// actor–critic networks (§6.1's architecture), the A3C training loop of
// Fig. 6 / Algorithm 1 with asynchronous workers, ε-greedy exploration, and
// a tabular Q-learning reference learner used to validate the plumbing
// against exact value iteration.
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

	feats   *mat.Matrix    // reused batch feature matrix (DecideTrace)
	tiers   []pricing.Tier // reused batch decision buffer
	envs    []*mdp.Env     // reused per-file environments (DecideTrace)
	states  []mdp.State    // reused per-file states (DecideTrace)
	featBuf []float64      // reused single-sample feature encoding
}

// features encodes s into the agent's reused scratch buffer; the returned
// slice is valid until the next Decide/Probabilities call.
func (a *Agent) features(s *mdp.State) []float64 {
	n := mdp.FeatureDim(len(s.ReadHistory))
	if cap(a.featBuf) < n {
		a.featBuf = make([]float64, n)
	}
	f := a.featBuf[:n]
	s.FeaturesInto(f)
	return f
}

// NewAgent wraps an actor network.
func NewAgent(cfg NetConfig, actor *nn.Network) *Agent {
	return &Agent{Net: cfg, actor: actor}
}

// Decide returns the greedy (argmax-probability) tier for the state.
func (a *Agent) Decide(s *mdp.State) pricing.Tier {
	logits := a.actor.Forward(a.features(s))
	best := 0
	for i := 1; i < len(logits); i++ {
		if logits[i] > logits[best] {
			best = i
		}
	}
	return pricing.Tier(best)
}

// Probabilities returns the policy distribution π(·|s). The returned slice
// is freshly allocated (callers retain it).
func (a *Agent) Probabilities(s *mdp.State) []float64 {
	return nn.Softmax(a.actor.Forward(a.features(s)))
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
