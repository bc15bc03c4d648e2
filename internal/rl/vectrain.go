package rl

import (
	"math"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// This file is the vectorized rollout engine (DESIGN.md §16): the worker
// variant selected by A3CConfig.EnvsPerWorker ≥ 2. Where the classic worker
// steps one environment and pays a batch-of-1 forward per action, the
// vectorized worker drives E environments in lockstep through an
// mdp.EnvBank: each lockstep step fills one E-row block of a flat E×NSteps
// feature arena, selects all E actions with a single actor forward over that
// block (an E-row GEMM that actually reaches the packed kernels in mat), and
// advances all E environments with one StepAll. The block is forwarded where
// it lies in the arena (nn.Network.ForwardRows), so when the last step has
// chosen its actions the actor's forward pass over the whole arena — logits
// and every activation the gradient pass needs — already exists, and the
// n-step update adds one critic forward, a scalar return/advantage loop and
// one params-only backward pass per network. Both replicas stay bound to one
// pinned snapshot from bindSnapshot to pushUpdate, so each packs its weights
// once per update, at its first forward, however many forwards follow.
//
// Determinism contract: every environment owns an RNG substream split from
// the worker stream by member index, all lockstep loops run in fixed member
// order (0…E-1), and episodes that end mid-rollout are re-targeted in place
// (EnvSource.ReinitEnv) and reset immediately, with the return recursion
// restarted at the boundary. A run is therefore a pure function of (config,
// seed) at Workers=1 — the seed-determinism test pins it — while E=1 keeps
// the classic worker and its bitwise contract with the single-sample
// reference (worker dispatch in TrainFrom).

// vecBuf holds one vectorized worker's reused update matrices, grown once
// and reused for every rollout thereafter.
type vecBuf struct {
	dV    *mat.Matrix // critic output gradients (V - R per row)
	dL    *mat.Matrix // actor logit gradients
	probs []float64   // reused per-row softmax output
}

// sampleDist draws an index from the distribution p by inverting its CDF at
// u, mirroring Agent.Sample's arithmetic exactly (same accumulation order,
// same final-index fallback against rounding).
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

// vecWorker is one asynchronous actor-learner driving EnvsPerWorker
// environments in lockstep.
func (a *A3C) vecWorker(id int, src EnvSource, totalSteps int64) TrainStats {
	nEnvs := a.cfg.envsPerWorker()
	nSteps := a.cfg.NSteps
	w := a.cfg.parallelism()
	featDim := a.cfg.Net.featureDim()

	// Worker stream as in the classic loop; each bank member then splits its
	// own substream by index, so a member's episode draws and action samples
	// are independent of every other member's and of E itself.
	wr := rng.New(a.cfg.Seed).Split(uint64(id) + 0xAC7)
	envRNG := make([]*rng.RNG, nEnvs)
	for e := range envRNG {
		envRNG[e] = wr.Split(uint64(e) + 0x5EED)
	}

	// Replicas bound to the prototypes' values until the first bindSnapshot
	// below, with flat gradients from the start: nothing is copied.
	actor := a.protoActor.BoundClone()
	critic := a.protoCritic.BoundClone()

	bank := mdp.NewEnvBank(nEnvs)
	for e := 0; e < nEnvs; e++ {
		bank.Install(e, src.NewEnv(envRNG[e]))
	}
	trainMet.envs.Add(float64(nEnvs))
	defer trainMet.envs.Add(-float64(nEnvs))

	// Rollout storage, step-major: lockstep step t owns rows [t·E, (t+1)·E)
	// of the arena and the flat transition arrays.
	rows := nEnvs * nSteps
	feats := mat.New(rows, featDim)
	rewards := make([]float64, rows)
	actions := make([]int, rows)
	dones := make([]bool, rows)
	stepActions := make([]pricing.Tier, nEnvs)
	bootFeats := mat.New(nEnvs, featDim)
	boot := make([]float64, nEnvs)
	stickyLeft := make([]int, nEnvs)
	stickyAction := make([]pricing.Tier, nEnvs)
	var norm rewardNorm
	var vb vecBuf
	probs := make([]float64, mdp.NumActions)

	aGrad := actor.FlattenGrads()
	cGrad := critic.FlattenGrads()
	var st TrainStats
	var held *paramSnap
	defer func() { releaseSnapshot(held) }()
	packs := 0
	var logits *mat.Matrix

	for a.steps.Load() < totalSteps {
		held = a.bindSnapshot(actor, critic, held)
		actor.ZeroGrad()
		critic.ZeroGrad()

		for t := 0; t < nSteps; t++ {
			// Encode all members into this step's arena block and select all
			// actions with one batched forward over it, in place: logits has
			// a row per arena row, and step t's are rows [base, base+E).
			base := t * nEnvs
			bank.FillFeatures(feats.Data[base*featDim:(base+nEnvs)*featDim], featDim)
			sw := trainMet.vecForward.Start()
			logits = actor.ForwardRows(feats, base, base+nEnvs, w)
			sw.Stop()
			for e := 0; e < nEnvs; e++ {
				r := envRNG[e]
				var action pricing.Tier
				switch {
				case stickyLeft[e] > 0:
					action = stickyAction[e]
					stickyLeft[e]--
				case a.cfg.Epsilon > 0 && r.Float64() < a.cfg.Epsilon:
					action = pricing.Tier(r.Intn(mdp.NumActions))
					stickyAction[e] = action
					if a.cfg.ExploreHold > 1 {
						stickyLeft[e] = a.cfg.ExploreHold - 1
					}
				default:
					lrow := logits.Row(base + e)
					p := probs[:len(lrow)]
					nn.SoftmaxInto(p, lrow)
					action = sampleDist(p, r.Float64())
				}
				stepActions[e] = action
			}
			bank.StepAll(stepActions)

			for e := 0; e < nEnvs; e++ {
				reward := bank.Rewards[e]
				if a.cfg.NormalizeRewards {
					rewards[base+e] = norm.normalize(reward)
				} else {
					rewards[base+e] = reward
				}
				actions[base+e] = int(stepActions[e])
				dones[base+e] = bank.Done[e]
				st.Steps++
				st.RewardSum += reward
				st.CostSum += bank.Costs[e]
				if bank.Done[e] {
					// Episode turnover happens in place mid-rollout: the
					// member is re-targeted and reset now, so the next
					// lockstep step records the new episode's first
					// transition; the return recursion in accumulateVec
					// restarts at this boundary.
					st.Episodes++
					trainMet.episodes.Inc()
					src.ReinitEnv(envRNG[e], bank.Env(e))
					bank.ResetEnv(e)
					stickyLeft[e] = 0
				}
			}
			a.steps.Add(int64(nEnvs))
		}
		trainMet.steps.Add(float64(rows))
		trainMet.batchFill.Observe(1) // lockstep rollouts are always full

		// Bootstrap all members with one batched critic pass. The returned
		// matrix is owned by the network and overwritten by the next
		// ForwardBatch, so the values are copied out first; members whose
		// last transition was terminal bootstrap from 0 (their bank state is
		// already the next episode's reset observation).
		bank.FillFeatures(bootFeats.Data, featDim)
		values := critic.ForwardBatch(bootFeats, w)
		lastBase := (nSteps - 1) * nEnvs
		for e := 0; e < nEnvs; e++ {
			if dones[lastBase+e] {
				boot[e] = 0
			} else {
				boot[e] = values.Row(e)[0]
			}
		}

		a.accumulateVec(actor, critic, feats, logits, rewards, actions, dones, boot, &vb)
		a.pushUpdate(aGrad, cGrad, totalSteps)
		st.Updates++
		p := actor.WeightPacks() + critic.WeightPacks()
		trainMet.weightPacks.Add(float64(p - packs))
		packs = p
	}
	return st
}

// accumulateVec runs the n-step update over a full E×NSteps lockstep arena.
// The actor's forward pass is the rollout's: logits is what its row-window
// forwards over feats left behind, and its layers retain the activations. The
// update adds one critic ForwardBatch over all rows, a scalar loop computing
// per-env returns, advantages and output gradients (walking each env's column
// backward in time, resetting the return at episode boundaries), then one
// BackwardParams each — nobody reads the gradient with respect to the
// features. The per-row arithmetic is the reference gradient term for term —
// advantage clip, entropy bonus, logit decay — identical to
// accumulateSingle/accumulateBatched.
//
//minicost:hotpath
func (a *A3C) accumulateVec(actor, critic *nn.Network, feats, logits *mat.Matrix, rewards []float64, actions []int, dones []bool, boot []float64, vb *vecBuf) {
	w := a.cfg.parallelism()
	rows := feats.Rows
	nEnvs := len(boot)
	nSteps := rows / nEnvs
	values := critic.ForwardBatch(feats, w)
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

			// Actor: ascend A·∇log π(a|s) + β ∇H(π); see accumulateSingle
			// for the gradient derivation comments.
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
				grad := adv * p[k]
				if k == actions[i] {
					grad -= adv
				}
				if p[k] > 0 {
					grad += a.cfg.EntropyBeta * p[k] * (math.Log(p[k]) + h)
				}
				grad += a.cfg.LogitDecay * lrow[k]
				drow[k] = grad
			}
		}
	}
	critic.BackwardParams(vb.dV, w)
	actor.BackwardParams(vb.dL, w)
}
