package rl

import (
	"math"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// This file is the training engine (DESIGN.md §10): the one worker rollout.
// Each worker drives A3CConfig.EnvsPerWorker = E environments in lockstep
// through an mdp.EnvBank (E=1 is the degenerate case, not a separate path):
// each lockstep step fills one E-row block of a flat E×NSteps feature arena,
// selects all E actions with a single actor forward over that block, and
// advances all E environments with one StepAll. The block is forwarded where
// it lies in the arena (nn.Network.ForwardRows), so when the last step has
// chosen its actions the actor's forward pass over the whole arena — logits
// and every activation the gradient pass needs — already exists, and the
// n-step update adds one critic forward, a scalar return/advantage loop and
// one params-only backward pass per network. Both replicas are bound to the
// global vectors at the start of every round and read them unchanged until
// the round's apply, so each packs its weights once per round, at its first
// forward, however many forwards follow.
//
// Determinism contract: every environment owns an RNG substream split from
// the worker stream by member index, all lockstep loops run in fixed member
// order (0…E-1), and episodes that end mid-rollout are re-targeted in place
// (EnvSource.ReinitEnv) and reset immediately, with the return recursion
// restarted at the boundary. A worker's rollout reads nothing another worker
// writes, and a round's gradients are applied in worker order, so a run is a
// pure function of (config, seed) at every Workers — the seed-determinism
// test and the golden parameter hashes pin it — and accumulateVec equals a
// per-row Forward/Backward oracle bit for bit (oracle_test.go).

// vecBuf holds one worker's reused update matrices, grown once
// and reused for every rollout thereafter.
type vecBuf struct {
	dV    *mat.Matrix // critic output gradients (V - R per row)
	dL    *mat.Matrix // actor logit gradients
	probs []float64   // reused per-row softmax output
}

// sampleDist draws an index from the distribution p by inverting its CDF at
// u, falling back to the last index when rounding leaves the CDF short of u.
//
//minicost:hotpath
func sampleDist(p []float64, u float64) pricing.Tier {
	acc := 0.0
	for i, v := range p {
		acc += v
		if u < acc {
			return pricing.Tier(i)
		}
	}
	return pricing.Tier(len(p) - 1)
}

// worker is one actor-learner driving EnvsPerWorker environments in
// lockstep. Its state lives across the rounds of one TrainFrom call.
type worker struct {
	a      *A3C
	src    EnvSource
	envRNG []*rng.RNG
	bank   *mdp.EnvBank

	actor, critic *nn.Network
	aGrad, cGrad  []float64 // the replicas' flat gradients, read by the apply

	// Rollout storage, step-major: lockstep step t owns rows [t·E, (t+1)·E)
	// of the arena and the flat transition arrays.
	feats        *mat.Matrix
	rewards      []float64
	actions      []int
	dones        []bool
	stepActions  []pricing.Tier
	bootFeats    *mat.Matrix
	boot         []float64
	stickyLeft   []int
	stickyAction []pricing.Tier
	probs        []float64
	norm         rewardNorm
	vb           vecBuf
	packs        int

	st TrainStats
}

// newWorker builds worker id's environments, replicas and buffers.
func (a *A3C) newWorker(id int, src EnvSource) *worker {
	nEnvs := a.cfg.envsPerWorker()
	featDim := a.cfg.Net.featureDim()
	rows := nEnvs * a.cfg.NSteps

	// One stream per worker; each bank member then splits its own substream
	// by index, so a member's episode draws and action samples are
	// independent of every other member's and of E itself.
	wr := rng.New(a.cfg.Seed).Split(uint64(id) + 0xAC7)
	w := &worker{
		a:      a,
		src:    src,
		envRNG: make([]*rng.RNG, nEnvs),
		bank:   mdp.NewEnvBank(nEnvs),
		// Replicas bound to the prototypes' values until the first round
		// binds them to the global vectors, with flat gradients from the
		// start: nothing is copied.
		actor:        a.protoActor.BoundClone(),
		critic:       a.protoCritic.BoundClone(),
		feats:        mat.New(rows, featDim),
		rewards:      make([]float64, rows),
		actions:      make([]int, rows),
		dones:        make([]bool, rows),
		stepActions:  make([]pricing.Tier, nEnvs),
		bootFeats:    mat.New(nEnvs, featDim),
		boot:         make([]float64, nEnvs),
		stickyLeft:   make([]int, nEnvs),
		stickyAction: make([]pricing.Tier, nEnvs),
		probs:        make([]float64, mdp.NumActions),
	}
	for e := range w.envRNG {
		w.envRNG[e] = wr.Split(uint64(e) + 0x5EED)
		w.bank.Install(e, src.NewEnv(w.envRNG[e]))
	}
	w.aGrad = w.actor.FlattenGrads()
	w.cGrad = w.critic.FlattenGrads()
	return w
}

// rollout is the worker's part of one round: bind the replicas to the global
// vectors, drive the E environments NSteps lockstep steps, and leave the
// n-step gradients in aGrad and cGrad. The caller holds a.mu shared.
func (w *worker) rollout() {
	a := w.a
	nEnvs := len(w.boot)
	nSteps := a.cfg.NSteps
	featDim := a.cfg.Net.featureDim()
	actor, critic, bank := w.actor, w.critic, w.bank

	actor.BindParamVector(a.actor)
	critic.BindParamVector(a.critic)
	actor.ZeroGrad()
	critic.ZeroGrad()

	var logits *mat.Matrix
	for t := 0; t < nSteps; t++ {
		// Encode all members into this step's arena block and select all
		// actions with one batched forward over it, in place: logits has a
		// row per arena row, and step t's are rows [base, base+E).
		base := t * nEnvs
		bank.FillFeatures(w.feats.Data[base*featDim:(base+nEnvs)*featDim], featDim)
		sw := trainMet.vecForward.Start()
		logits = actor.ForwardRows(w.feats, base, base+nEnvs)
		sw.Stop()
		for e := 0; e < nEnvs; e++ {
			r := w.envRNG[e]
			var action pricing.Tier
			switch {
			case w.stickyLeft[e] > 0:
				action = w.stickyAction[e]
				w.stickyLeft[e]--
			case a.cfg.Epsilon > 0 && r.Float64() < a.cfg.Epsilon:
				action = pricing.Tier(r.Intn(mdp.NumActions))
				w.stickyAction[e] = action
				if a.cfg.ExploreHold > 1 {
					w.stickyLeft[e] = a.cfg.ExploreHold - 1
				}
			default:
				lrow := logits.Row(base + e)
				p := w.probs[:len(lrow)]
				nn.SoftmaxInto(p, lrow)
				action = sampleDist(p, r.Float64())
			}
			w.stepActions[e] = action
		}
		bank.StepAll(w.stepActions)

		for e := 0; e < nEnvs; e++ {
			reward := bank.Rewards[e]
			if a.cfg.NormalizeRewards {
				w.rewards[base+e] = w.norm.normalize(reward)
			} else {
				w.rewards[base+e] = reward
			}
			w.actions[base+e] = int(w.stepActions[e])
			w.dones[base+e] = bank.Done[e]
			w.st.Steps++
			w.st.RewardSum += reward
			w.st.CostSum += bank.Costs[e]
			if bank.Done[e] {
				// Episode turnover happens in place mid-rollout: the
				// member is re-targeted and reset now, so the next
				// lockstep step records the new episode's first
				// transition; the return recursion in accumulateVec
				// restarts at this boundary.
				w.st.Episodes++
				trainMet.episodes.Inc()
				w.src.ReinitEnv(w.envRNG[e], bank.Env(e))
				bank.ResetEnv(e)
				w.stickyLeft[e] = 0
			}
		}
		a.steps.Add(int64(nEnvs))
	}
	trainMet.steps.Add(float64(nEnvs * nSteps))

	// Bootstrap all members with one batched critic pass. The returned
	// matrix is owned by the network and overwritten by the next
	// ForwardBatch, so the values are copied out first; members whose last
	// transition was terminal bootstrap from 0 (their bank state is already
	// the next episode's reset observation).
	bank.FillFeatures(w.bootFeats.Data, featDim)
	values := critic.ForwardBatch(w.bootFeats, 1)
	lastBase := (nSteps - 1) * nEnvs
	for e := 0; e < nEnvs; e++ {
		if w.dones[lastBase+e] {
			w.boot[e] = 0
		} else {
			w.boot[e] = values.Row(e)[0]
		}
	}

	a.accumulateVec(actor, critic, w.feats, logits, w.rewards, w.actions, w.dones, w.boot, &w.vb)
	p := actor.WeightPacks() + critic.WeightPacks()
	trainMet.weightPacks.Add(float64(p - w.packs))
	w.packs = p
}

// accumulateVec runs the n-step update over a full E×NSteps lockstep arena.
// The actor's forward pass is the rollout's: logits is what its row-window
// forwards over feats left behind, and its layers retain the activations. The
// update adds one critic ForwardBatch over all rows, a scalar loop computing
// per-env returns, advantages and output gradients (walking each env's column
// backward in time, resetting the return at episode boundaries), then one
// BackwardParams each — nobody reads the gradient with respect to the
// features. Its per-row oracle (oracle_test.go) runs Forward and Backward
// one row at a time and must match it bit for bit.
//
//minicost:hotpath
func (a *A3C) accumulateVec(actor, critic *nn.Network, feats, logits *mat.Matrix, rewards []float64, actions []int, dones []bool, boot []float64, vb *vecBuf) {
	rows := feats.Rows
	nEnvs := len(boot)
	nSteps := rows / nEnvs
	values := critic.ForwardBatch(feats, 1)
	vb.dV = mat.EnsureShape(vb.dV, rows, 1)
	vb.dL = mat.EnsureShape(vb.dL, rows, mdp.NumActions)
	if cap(vb.probs) < mdp.NumActions {
		vb.probs = make([]float64, mdp.NumActions)
	}
	for e := 0; e < nEnvs; e++ {
		ret := boot[e]
		for t := nSteps - 1; t >= 0; t-- {
			i := t*nEnvs + e
			if dones[i] {
				// This transition ended its episode; its return must not
				// leak into the next episode's rewards already accumulated
				// from later rows.
				ret = 0
			}
			ret = rewards[i] + a.cfg.Gamma*ret

			// Critic: minimize 0.5 (V - R)^2.
			v := values.Row(i)[0]
			vb.dV.Row(i)[0] = v - ret

			// Actor: ascend A·∇log π(a|s) + β ∇H(π). Advantage Eq. 10 uses
			// the critic's value as the baseline V^π(s).
			adv := ret - v
			if a.cfg.AdvClip > 0 {
				adv = math.Max(-a.cfg.AdvClip, math.Min(a.cfg.AdvClip, adv))
			}
			lrow := logits.Row(i)
			p := vb.probs[:len(lrow)]
			nn.SoftmaxInto(p, lrow)
			h := nn.Entropy(p)
			drow := vb.dL.Row(i)
			for k := range drow {
				grad := adv * p[k] // d(-log π(a))·A / dz_k, part 1
				if k == actions[i] {
					grad -= adv
				}
				if p[k] > 0 {
					// Entropy bonus: d(-βH)/dz_k = β π_k (log π_k + H).
					grad += a.cfg.EntropyBeta * p[k] * (math.Log(p[k]) + h)
				}
				// Logit L2 decay (see A3CConfig.LogitDecay).
				grad += a.cfg.LogitDecay * lrow[k]
				drow[k] = grad
			}
		}
	}
	critic.BackwardParams(vb.dV)
	actor.BackwardParams(vb.dL)
}
