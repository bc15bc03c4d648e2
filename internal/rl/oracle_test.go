package rl

import (
	"fmt"
	"math"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/pricing"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// accumulateSingle is accumulateVec's per-row oracle: the same n-step update
// over the same E×NSteps arena, one row at a time. Each row's value and
// logits come from a single-sample Forward per network, the scalar
// return/advantage/entropy/decay loop is the reference arithmetic, and each
// row's output gradient then goes through a single-sample Backward per
// network in arena row order — the order in which BackwardParams accumulates
// its terms. Gradients accumulate into the networks' Grad blocks.
func (a *A3C) accumulateSingle(actor, critic *nn.Network, feats *mat.Matrix, rewards []float64, actions []int, dones []bool, boot []float64) {
	rows := feats.Rows
	nEnvs := len(boot)
	nSteps := rows / nEnvs
	values := make([]float64, rows)
	logits := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		values[i] = critic.Forward(feats.Row(i))[0]
		logits[i] = append([]float64(nil), actor.Forward(feats.Row(i))...)
	}
	dV := make([]float64, rows)
	dL := make([][]float64, rows)
	for e := 0; e < nEnvs; e++ {
		ret := boot[e]
		for t := nSteps - 1; t >= 0; t-- {
			i := t*nEnvs + e
			if dones[i] {
				ret = 0
			}
			ret = rewards[i] + a.cfg.Gamma*ret

			// Critic: minimize 0.5 (V - R)^2.
			v := values[i]
			dV[i] = v - ret

			// Actor: ascend A·∇log π(a|s) + β ∇H(π).
			adv := ret - v
			if a.cfg.AdvClip > 0 {
				adv = math.Max(-a.cfg.AdvClip, math.Min(a.cfg.AdvClip, adv))
			}
			z := logits[i]
			p := nn.Softmax(z)
			h := nn.Entropy(p)
			dL[i] = make([]float64, len(z))
			for k := range z {
				grad := adv * p[k]
				if k == actions[i] {
					grad -= adv
				}
				if p[k] > 0 {
					grad += a.cfg.EntropyBeta * p[k] * (math.Log(p[k]) + h)
				}
				grad += a.cfg.LogitDecay * z[k]
				dL[i][k] = grad
			}
		}
	}
	for i := 0; i < rows; i++ {
		critic.Forward(feats.Row(i))
		critic.Backward(dV[i : i+1])
		actor.Forward(feats.Row(i))
		actor.Backward(dL[i])
	}
}

// factorySource is the fresh-env-per-episode oracle for EnvSource: NewEnv
// calls f, and ReinitEnv builds a fresh environment with f and copies it
// over the old one instead of re-targeting it in place. Tests also use it to
// inject hand-built environments.
type factorySource struct{ f func(r *rng.RNG) *mdp.Env }

func (s factorySource) NewEnv(r *rng.RNG) *mdp.Env { return s.f(r) }

func (s factorySource) ReinitEnv(r *rng.RNG, env *mdp.Env) {
	fresh := s.f(r)
	// The old env may be running on recycled observation buffers; the copy
	// must carry that mode (and fresh buffers) over, not silently drop it.
	fresh.EnableStateReuse()
	*env = *fresh
}

// trainSingleSample is the training engine's single-sample reference: the
// trainer vecWorker implements, written one sample at a time for Workers=1.
// It keeps vecWorker's stream layout (member substreams split from the
// worker stream), its fixed member order, its shared reward normalizer and
// its in-place episode turnover, but steps each member's environment alone
// (no EnvBank), picks each action from a single-sample Forward, bootstraps
// each member with its own critic Forward and updates through
// accumulateSingle on replicas that copy the published weights.
func (a *A3C) trainSingleSample(src EnvSource, totalSteps int64) TrainStats {
	nEnvs := a.cfg.envsPerWorker()
	nSteps := a.cfg.NSteps
	featDim := a.cfg.Net.featureDim()

	wr := rng.New(a.cfg.Seed).Split(0xAC7)
	envRNG := make([]*rng.RNG, nEnvs)
	envs := make([]*mdp.Env, nEnvs)
	states := make([]mdp.State, nEnvs)
	for e := range envRNG {
		envRNG[e] = wr.Split(uint64(e) + 0x5EED)
		envs[e] = src.NewEnv(envRNG[e])
		states[e] = envs[e].Reset()
	}

	actor, critic := a.protoActor.Clone(), a.protoCritic.Clone()
	aGrad, cGrad := actor.FlattenGrads(), critic.FlattenGrads()
	rows := nEnvs * nSteps
	feats := mat.New(rows, featDim)
	rewards := make([]float64, rows)
	actions := make([]int, rows)
	dones := make([]bool, rows)
	boot := make([]float64, nEnvs)
	bootRow := make([]float64, featDim)
	stickyLeft := make([]int, nEnvs)
	stickyAction := make([]pricing.Tier, nEnvs)
	probs := make([]float64, mdp.NumActions)
	var norm rewardNorm
	var st TrainStats

	for a.steps.Load() < totalSteps {
		cur := a.snap.Load()
		actor.SetParamVector(cur.actor)
		critic.SetParamVector(cur.critic)
		actor.ZeroGrad()
		critic.ZeroGrad()

		for t := 0; t < nSteps; t++ {
			for e := 0; e < nEnvs; e++ {
				i := t*nEnvs + e
				states[e].FeaturesInto(feats.Row(i))
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
					nn.SoftmaxInto(probs, actor.Forward(feats.Row(i)))
					action = sampleDist(probs, r.Float64())
				}
				next, reward, cost, done, err := envs[e].Step(action)
				if err != nil {
					panic(err)
				}
				if a.cfg.NormalizeRewards {
					rewards[i] = norm.normalize(reward)
				} else {
					rewards[i] = reward
				}
				actions[i] = int(action)
				dones[i] = done
				st.Steps++
				st.RewardSum += reward
				st.CostSum += cost
				states[e] = next
				if done {
					st.Episodes++
					src.ReinitEnv(envRNG[e], envs[e])
					states[e] = envs[e].Reset()
					stickyLeft[e] = 0
				}
			}
			a.steps.Add(int64(nEnvs))
		}

		lastBase := (nSteps - 1) * nEnvs
		for e := 0; e < nEnvs; e++ {
			boot[e] = 0
			if !dones[lastBase+e] {
				states[e].FeaturesInto(bootRow)
				boot[e] = critic.Forward(bootRow)[0]
			}
		}
		a.accumulateSingle(actor, critic, feats, rewards, actions, dones, boot)
		a.pushUpdate(aGrad, cGrad, totalSteps)
		st.Updates++
	}
	return st
}

// engineVsSingleSample trains two fresh trainers with cfg (Workers must be
// 1): the engine through TrainFrom(engineSrc) and the single-sample
// reference through refSrc. It fails unless both reach identical stats and
// bitwise-identical actor and critic parameters after a sustained run
// (> 50 updates).
func engineVsSingleSample(t *testing.T, cfg A3CConfig, engineSrc, refSrc EnvSource, steps int64) {
	t.Helper()
	ref, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := ref.trainSingleSample(refSrc, steps)
	engine, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotStats, err := engine.TrainFrom(engineSrc, steps)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.Updates < 50 {
		t.Fatalf("only %d updates; the gate needs a sustained run", wantStats.Updates)
	}
	if gotStats != wantStats {
		t.Fatalf("stats diverged: engine %+v, single-sample %+v", gotStats, wantStats)
	}
	want, got := ref.snap.Load(), engine.snap.Load()
	assertVectorsBitwise(t, "actor", got.actor, want.actor)
	assertVectorsBitwise(t, "critic", got.critic, want.critic)
}

// TestBatchedTrainerMatchesSingleSampleBitwise is the training-engine
// equivalence gate: at Workers=1 with a fixed seed, the lockstep engine at
// E=4 — every action picked from a batched row-window forward, every update
// one batched backward per network, replicas bound to the published
// snapshot — must leave bitwise-identical actor and critic parameters and
// identical stats to the single-sample reference trainer after a sustained
// run, both driven through the same fresh-env-per-episode source. The
// paper-width sweep is TestBatchedTrainingEquivalentAcrossPaperWidths.
func TestBatchedTrainerMatchesSingleSampleBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 4
	const steps = 1600 // 57 updates at E=4, NSteps 7

	src := factorySource{f: traceSource(t, polarTrace(t, 8, 14), cfg.Net.HistLen).NewEnv}
	engineVsSingleSample(t, cfg, src, src, steps)
}

// TestTrainFromAtE1MatchesSingleSampleBitwise extends the engine-equivalence
// chain to E=1, the width every caller without an explicit one trains at,
// and to TraceSource: its in-place ReinitEnv must be observationally
// identical to building a fresh env per episode, so a TrainFrom run at E=1
// over a TraceSource must stay bitwise-identical to the single-sample
// reference driven through factorySource.
func TestTrainFromAtE1MatchesSingleSampleBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 1
	const steps = 400 // 57 updates at NSteps 7

	src := traceSource(t, polarTrace(t, 8, 14), cfg.Net.HistLen)
	engineVsSingleSample(t, cfg, src, factorySource{f: src.NewEnv}, steps)
}

// TestBatchedTrainingEquivalentAcrossPaperWidths runs the engine-equivalence
// gate end to end at every network width Fig. 11 sweeps, 4 to the paper's
// 128, on a generated trace: at Workers=1 with a fixed seed the engine must
// match the single-sample reference trainer bitwise after more than 50
// updates, at E=1 and at E=4.
func TestBatchedTrainingEquivalentAcrossPaperWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full width sweep is slow; TestBatchedTrainerMatchesSingleSampleBitwise covers one width")
	}
	gen := trace.DefaultGenConfig()
	gen.NumFiles = 20
	gen.Days = 12
	gen.Seed = 43
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.New(pricing.Azure())
	for wi, width := range []int{4, 16, 32, 64, 128} { // experiments.PaperWidths
		for _, nEnvs := range []int{1, 4} {
			t.Run(fmt.Sprintf("width=%d/E=%d", width, nEnvs), func(t *testing.T) {
				cfg := DefaultA3CConfig()
				cfg.Net = NetConfig{HistLen: 7, Filters: width, Kernel: 4, Stride: 1, Hidden: width}
				cfg.Workers = 1
				cfg.EnvsPerWorker = nEnvs
				cfg.Seed = uint64(3000 + wi)
				src, err := NewTraceSource(model, tr, cfg.Net.HistLen, mdp.DefaultReward(), pricing.Hot)
				if err != nil {
					t.Fatal(err)
				}
				engineVsSingleSample(t, cfg, src, src, int64(400*nEnvs))
			})
		}
	}
}

// TestAccumulateVecMatchesPerRowOracle holds the training engine's update to
// its per-row oracle bit for bit, at every lockstep width from E=1 (the shape
// every caller without an explicit width trains at) to 16 and at every
// network width Fig. 11 sweeps, 4 to the paper's 128. Each case runs three
// updates against the parameter server, so the later ones run on published,
// recycled, re-bound snapshots rather than the initial weights; the rollout
// data has episodes ending mid-rollout, on the last step and not at all.
// -short and the race detector stop at width 32.
func TestAccumulateVecMatchesPerRowOracle(t *testing.T) {
	widths := []int{4, 16, 32, 64, 128} // experiments.PaperWidths
	if testing.Short() || raceEnabled {
		widths = widths[:3]
	}
	for wi, width := range widths {
		for _, nEnvs := range []int{1, 4, 8, 16} {
			t.Run(fmt.Sprintf("width=%d/E=%d", width, nEnvs), func(t *testing.T) {
				cfg := DefaultA3CConfig()
				cfg.Net = NetConfig{HistLen: 14, Filters: width, Kernel: 4, Stride: 1, Hidden: width}
				cfg.EnvsPerWorker = nEnvs
				cfg.Seed = uint64(3000 + wi)
				checkOracle(t, cfg, 3)
			})
		}
	}
}

// checkOracle runs updates rounds of the engine's update (ForwardRows windows
// over a random arena, then accumulateVec) on bound replicas and the per-row
// oracle on fresh copies of the same snapshot, compares the two gradient
// vectors bitwise, and pushes the engine's to the parameter server.
func checkOracle(t *testing.T, cfg A3CConfig, updates int) {
	t.Helper()
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nEnvs, nSteps := cfg.envsPerWorker(), cfg.NSteps
	rows := nEnvs * nSteps
	actor, critic := a3c.protoActor.BoundClone(), a3c.protoCritic.BoundClone()
	aGrad, cGrad := actor.FlattenGrads(), critic.FlattenGrads()
	refActor, refCritic := a3c.protoActor.Clone(), a3c.protoCritic.Clone()
	refAGrad, refCGrad := refActor.FlattenGrads(), refCritic.FlattenGrads()

	r := rng.New(cfg.Seed)
	feats := mat.New(rows, cfg.Net.featureDim())
	rewards := make([]float64, rows)
	actions := make([]int, rows)
	dones := make([]bool, rows)
	boot := make([]float64, nEnvs)
	var vb vecBuf
	var held *paramSnap
	defer func() { releaseSnapshot(held) }()
	for u := 0; u < updates; u++ {
		for i := range feats.Data {
			feats.Data[i] = r.Float64()*4 - 1
		}
		for i := range rewards {
			rewards[i] = r.NormalMS(0, 2)
			actions[i] = r.Intn(mdp.NumActions)
			dones[i] = false
		}
		for e := range boot {
			boot[e] = r.NormalMS(0, 1)
			// Member e's episode ends at step (e+u) mod (NSteps+1): mid-rollout,
			// on the last step, or — at NSteps — not in this rollout.
			if step := (e + u) % (nSteps + 1); step < nSteps {
				dones[step*nEnvs+e] = true
			}
		}

		held = a3c.bindSnapshot(actor, critic, held)
		actor.ZeroGrad()
		critic.ZeroGrad()
		var logits *mat.Matrix
		for s := 0; s < nSteps; s++ {
			logits = actor.ForwardRows(feats, s*nEnvs, (s+1)*nEnvs, 1)
		}
		a3c.accumulateVec(actor, critic, feats, logits, rewards, actions, dones, boot, &vb)

		refActor.SetParamVector(held.actor)
		refCritic.SetParamVector(held.critic)
		refActor.ZeroGrad()
		refCritic.ZeroGrad()
		a3c.accumulateSingle(refActor, refCritic, feats, rewards, actions, dones, boot)

		assertVectorsBitwise(t, fmt.Sprintf("update %d: actor gradient", u), aGrad, refAGrad)
		assertVectorsBitwise(t, fmt.Sprintf("update %d: critic gradient", u), cGrad, refCGrad)

		a3c.pushUpdate(aGrad, cGrad, int64(updates*rows))
	}
}
