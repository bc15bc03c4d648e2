package mdp

import (
	"fmt"

	"minicost/internal/pricing"
)

// EnvBank drives a fixed set of environments in lockstep for the training
// engine (DESIGN.md §10): one bank per A3C worker, E member
// environments stepped together so action selection and value bootstrapping
// amortize one batched network pass over all E members instead of E
// batch-of-1 passes. Per-step results live in struct-of-arrays form
// (Rewards, Costs, Done), so the consumer reads them with flat indexed
// loops instead of chasing per-env result structs.
//
// The bank owns its members' observations: Install enables state reuse on
// every member, so steady-state stepping (FillFeatures + StepAll) allocates
// nothing. A member whose episode ends keeps its terminal flag in Done
// until the caller re-targets it — Env.Reinit on the pooled member, or a
// fresh environment via Install — and rewinds it with ResetEnv; stepping a
// finished member without resetting it is a caller bug and panics.
type EnvBank struct {
	envs   []*Env
	states []State

	// Struct-of-arrays outputs of the latest StepAll, indexed by member.
	Rewards []float64
	Costs   []float64
	Done    []bool
}

// NewEnvBank returns an empty bank with n member slots; fill every slot
// with Install before stepping.
func NewEnvBank(n int) *EnvBank {
	if n <= 0 {
		panic(fmt.Sprintf("mdp: EnvBank size %d", n))
	}
	return &EnvBank{
		envs:    make([]*Env, n),
		states:  make([]State, n),
		Rewards: make([]float64, n),
		Costs:   make([]float64, n),
		Done:    make([]bool, n),
	}
}

// Len returns the number of member slots.
func (b *EnvBank) Len() int { return len(b.envs) }

// Env returns member i's environment (for in-place Reinit at episode
// turnover; follow with ResetEnv).
func (b *EnvBank) Env(i int) *Env { return b.envs[i] }

// State returns member i's current observation. The pointed-to value is
// overwritten by the member's next StepAll/ResetEnv.
func (b *EnvBank) State(i int) *State { return &b.states[i] }

// Install places e in slot i, switches it to recycled observations, and
// starts its episode.
func (b *EnvBank) Install(i int, e *Env) {
	e.EnableStateReuse()
	b.envs[i] = e
	b.states[i] = e.Reset()
	b.Done[i] = false
}

// ResetEnv rewinds member i to the start of its (possibly re-targeted)
// episode, clearing its terminal flag.
func (b *EnvBank) ResetEnv(i int) {
	b.states[i] = b.envs[i].Reset()
	b.Done[i] = false
}

// FillFeatures encodes every member's current observation into dst, a flat
// row-major Len()×dim block (member i at dst[i*dim:(i+1)*dim]). dim must be
// FeatureDim of the members' history length. It allocates nothing — the
// training engine points dst straight into its rollout feature arena.
//
//minicost:hotpath
func (b *EnvBank) FillFeatures(dst []float64, dim int) {
	if len(dst) != len(b.envs)*dim {
		panic(fmt.Sprintf("mdp: FillFeatures dst len %d, want %d×%d", len(dst), len(b.envs), dim))
	}
	for i := range b.envs {
		b.states[i].FeaturesInto(dst[i*dim : (i+1)*dim : (i+1)*dim])
	}
}

// StepAll advances every member one day with its action, recording the
// per-member reward, cost, and terminal flag in the bank's flat result
// arrays and replacing the current states. Members run independently, so
// lockstep order is fixed (0…Len-1) and results are identical to stepping
// each member alone. With state reuse on (Install enables it) the call
// allocates nothing.
//
//minicost:hotpath
func (b *EnvBank) StepAll(actions []pricing.Tier) {
	if len(actions) != len(b.envs) {
		panic(fmt.Sprintf("mdp: StepAll %d actions for %d envs", len(actions), len(b.envs)))
	}
	for i, e := range b.envs {
		next, reward, cost, done, err := e.Step(actions[i])
		if err != nil {
			// The bank's contract is reset-before-step; a finished member
			// reaching Step means the driver skipped ResetEnv.
			panic("mdp: EnvBank stepped an unresettled member: " + err.Error())
		}
		b.states[i] = next
		b.Rewards[i] = reward
		b.Costs[i] = cost
		b.Done[i] = done
	}
}
