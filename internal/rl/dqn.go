package rl

import (
	"fmt"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// DQNConfig configures the replay-based Q-learner. Algorithm 1 of the paper
// describes exactly this loop — observe, act ε-greedily, store, "randomly
// select a set of actions from the memory of neural network", train — so a
// true DQN (replay buffer + target network) is provided alongside A3C both
// as a fidelity point and as an ablation: the paper's §5.1 narrative uses
// A3C, its pseudocode uses replay.
type DQNConfig struct {
	Net          NetConfig
	LearningRate float64
	Gamma        float64
	// Epsilon anneals linearly from EpsilonStart to EpsilonFinal over the
	// training run.
	EpsilonStart float64
	EpsilonFinal float64
	// ExploreHold keeps an exploration action for several consecutive days
	// (see A3CConfig.ExploreHold for why tier MDPs need it).
	ExploreHold int
	// BufferSize is the replay-memory capacity (transitions); BatchSize the
	// minibatch per update; UpdateEvery the environment steps between
	// updates; TargetSync the updates between target-network refreshes.
	BufferSize  int
	BatchSize   int
	UpdateEvery int
	TargetSync  int
	// WarmupSteps must elapse before learning starts.
	WarmupSteps int
	// NormalizeRewards standardizes rewards with running statistics.
	NormalizeRewards bool
	Seed             uint64
}

// DefaultDQNConfig returns a configuration matched to the A3C defaults.
func DefaultDQNConfig() DQNConfig {
	return DQNConfig{
		Net:              DefaultNetConfig(),
		LearningRate:     0.0027,
		Gamma:            0.9,
		EpsilonStart:     0.5,
		EpsilonFinal:     0.05,
		ExploreHold:      5,
		BufferSize:       50000,
		BatchSize:        32,
		UpdateEvery:      4,
		TargetSync:       500,
		WarmupSteps:      1000,
		NormalizeRewards: true,
	}
}

// Validate checks the configuration.
func (c DQNConfig) Validate() error {
	if err := c.Net.Validate(); err != nil {
		return err
	}
	switch {
	case c.LearningRate <= 0:
		return fmt.Errorf("rl: dqn learning rate %v", c.LearningRate)
	case c.Gamma < 0 || c.Gamma >= 1:
		return fmt.Errorf("rl: dqn gamma %v", c.Gamma)
	case c.EpsilonStart < 0 || c.EpsilonStart > 1 || c.EpsilonFinal < 0 || c.EpsilonFinal > c.EpsilonStart:
		return fmt.Errorf("rl: dqn epsilon schedule [%v,%v]", c.EpsilonStart, c.EpsilonFinal)
	case c.BufferSize < c.BatchSize || c.BatchSize <= 0:
		return fmt.Errorf("rl: dqn buffer %d / batch %d", c.BufferSize, c.BatchSize)
	case c.UpdateEvery <= 0 || c.TargetSync <= 0:
		return fmt.Errorf("rl: dqn cadence UpdateEvery=%d TargetSync=%d", c.UpdateEvery, c.TargetSync)
	case c.WarmupSteps < c.BatchSize:
		return fmt.Errorf("rl: dqn warmup %d below batch size", c.WarmupSteps)
	case c.WarmupSteps > c.BufferSize:
		// The ring holds at most BufferSize transitions, so learning would
		// never start.
		return fmt.Errorf("rl: dqn warmup %d above buffer size %d", c.WarmupSteps, c.BufferSize)
	case c.ExploreHold < 0:
		return fmt.Errorf("rl: dqn explore hold %d", c.ExploreHold)
	}
	return nil
}

// transition is one replay-memory entry.
type transition struct {
	state  []float64
	action int
	reward float64
	next   []float64
	done   bool
}

// DQN is a deep Q-learner over the MiniCost MDP. It runs on nn's batched
// passes: an action pick is a one-row forward, an update one forward of the
// minibatch through each network and one params-only backward. The online
// network is bound to params, which the optimizer steps in place and which
// is bound again after every step, as the A3C workers bind theirs: so the
// action picks between two updates share one weight pack.
type DQN struct {
	cfg    DQNConfig
	online *nn.Network
	target *nn.Network
	params []float64 // the online network's parameters, bound to it
	grads  []float64 // its flat gradient vector (FlattenGrads)
	opt    nn.Optimizer
	buffer []transition
	filled int
	cursor int
	steps  int64
	rng    *rng.RNG

	pick          *mat.Matrix // reused 1×FeatureDim action-pick input
	drawn         []int       // reused minibatch buffer indices, in draw order
	states, nexts *mat.Matrix // reused BatchSize×FeatureDim minibatch gathers
	dq            *mat.Matrix // reused BatchSize×NumActions output gradient
}

// NewDQN builds the learner.
func NewDQN(cfg DQNConfig) (*DQN, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	online := cfg.Net.BuildActor(r.Split(1)) // 3 outputs = Q-values per tier
	params := online.ParamVector()
	online.BindParamVector(params)
	fd := cfg.Net.featureDim()
	return &DQN{
		cfg:    cfg,
		online: online,
		target: online.Clone(),
		params: params,
		grads:  online.FlattenGrads(),
		opt:    nn.NewRMSProp(cfg.LearningRate),
		buffer: make([]transition, cfg.BufferSize),
		rng:    r.Split(2),
		pick:   mat.New(1, fd),
		drawn:  make([]int, cfg.BatchSize),
		states: mat.New(cfg.BatchSize, fd),
		nexts:  mat.New(cfg.BatchSize, fd),
		dq:     mat.New(cfg.BatchSize, mdp.NumActions),
	}, nil
}

// Steps returns the environment steps taken.
func (d *DQN) Steps() int64 { return d.steps }

// Agent wraps the online Q-network as a greedy serving policy (argmax over
// Q-values; Agent.Decide already takes the argmax of the network outputs).
func (d *DQN) Agent() *Agent {
	return NewAgent(d.cfg.Net, d.online.Clone())
}

// push stores a transition in the ring buffer.
func (d *DQN) push(t transition) {
	d.buffer[d.cursor] = t
	d.cursor = (d.cursor + 1) % len(d.buffer)
	if d.filled < len(d.buffer) {
		d.filled++
	}
}

// epsilon returns the annealed exploration rate at progress in [0,1].
func (d *DQN) epsilon(progress float64) float64 {
	if progress > 1 {
		progress = 1
	}
	return d.cfg.EpsilonStart + (d.cfg.EpsilonFinal-d.cfg.EpsilonStart)*progress
}

// Train runs single-threaded DQN training for totalSteps environment steps,
// drawing a fresh environment from src for every episode.
func (d *DQN) Train(src EnvSource, totalSteps int64) (TrainStats, error) {
	if src == nil {
		return TrainStats{}, fmt.Errorf("rl: nil env source")
	}
	if totalSteps <= 0 {
		return TrainStats{}, fmt.Errorf("rl: totalSteps %d", totalSteps)
	}
	env := src.NewEnv(d.rng)
	state := env.Reset()
	feats := state.Features()
	var st TrainStats
	var norm rewardNorm
	stickyLeft := 0
	var stickyAction pricing.Tier
	updates := 0

	start := d.steps
	for d.steps-start < totalSteps {
		// ε-greedy with sticky exploration.
		eps := d.epsilon(float64(d.steps-start) / float64(totalSteps))
		var action pricing.Tier
		switch {
		case stickyLeft > 0:
			action = stickyAction
			stickyLeft--
		case d.rng.Float64() < eps:
			action = pricing.Tier(d.rng.Intn(mdp.NumActions))
			stickyAction = action
			if d.cfg.ExploreHold > 1 {
				stickyLeft = d.cfg.ExploreHold - 1
			}
		default:
			copy(d.pick.Data, feats)
			action = pricing.Tier(argmax(d.online.ForwardBatch(d.pick, 1).Data))
		}

		next, reward, cost, done, err := env.Step(action)
		if err != nil {
			env = src.NewEnv(d.rng)
			state = env.Reset()
			feats = state.Features()
			stickyLeft = 0
			continue
		}
		if d.cfg.NormalizeRewards {
			reward = norm.normalize(reward)
		}
		nextFeats := next.Features()
		d.push(transition{state: feats, action: int(action), reward: reward, next: nextFeats, done: done})
		d.steps++
		st.Steps++
		st.RewardSum += reward
		st.CostSum += cost

		if done {
			st.Episodes++
			env = src.NewEnv(d.rng)
			state = env.Reset()
			feats = state.Features()
			stickyLeft = 0
		} else {
			state = next
			feats = nextFeats
		}

		if d.filled >= d.cfg.WarmupSteps && d.steps%int64(d.cfg.UpdateEvery) == 0 {
			d.update()
			st.Updates++
			updates++
			if updates%d.cfg.TargetSync == 0 {
				d.target.SetParamVector(d.params)
			}
		}
	}
	return st, nil
}

// update performs one minibatch gradient step: the TD target is
// r + γ·max_a' Q_target(s', a') (0 bootstrap at episode end), loss is the
// squared error on the taken action only, averaged over the minibatch. The
// sampled transitions are gathered into two matrices, in draw order, and
// each network runs one forward over its matrix; the output gradient has one
// nonzero entry per row, and the backward pass accumulates it row by row,
// exactly as one backward per sample would.
func (d *DQN) update() {
	for b := range d.drawn {
		i := d.rng.Intn(d.filled)
		d.drawn[b] = i
		copy(d.states.Row(b), d.buffer[i].state)
		copy(d.nexts.Row(b), d.buffer[i].next)
	}
	qNext := d.target.ForwardBatch(d.nexts, 1)
	q := d.online.ForwardBatch(d.states, 1)
	for i := range d.dq.Data {
		d.dq.Data[i] = 0
	}
	for b, i := range d.drawn {
		t := &d.buffer[i]
		targetQ := t.reward
		if !t.done {
			next := qNext.Row(b)
			targetQ += d.cfg.Gamma * next[argmax(next)]
		}
		d.dq.Row(b)[t.action] = (q.Row(b)[t.action] - targetQ) / float64(len(d.drawn))
	}
	d.online.ZeroGrad()
	d.online.BackwardParams(d.dq, 1)
	_, scale := nn.ClipScale(d.grads, 5)
	d.opt.Step(d.params, d.grads, scale)
	d.online.BindParamVector(d.params)
}

// argmax returns the index of the first largest element of xs.
func argmax(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}
