package main

import (
	"time"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/par"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
)

// Kernel probes time one layer's public function alone, on shapes taken
// from the workload's network, in the traced run only. They are what a
// kernel change moves first; the end-to-end metric it should then move is
// listed beside each in README.md.

// timeMedian calls fn until budget has passed (at least 5 times) and
// returns the median call time.
func timeMedian(budget time.Duration, fn func()) time.Duration {
	fn() // warm scratch buffers
	var samples []float64
	for begin := time.Now(); len(samples) < 5 || time.Since(begin) < budget; {
		start := time.Now()
		fn()
		samples = append(samples, float64(time.Since(start).Nanoseconds()))
	}
	return time.Duration(median(samples))
}

const probeBudget = 150 * time.Millisecond

// probeMatrix returns a rows×cols matrix of fixed pseudo-random values.
func probeMatrix(rows, cols int, seed uint64) *mat.Matrix {
	m := mat.New(rows, cols)
	r := rng.New(seed)
	for i := range m.Data {
		m.Data[i] = r.Float64()*2 - 1
	}
	return m
}

// denseShape is the network's big GEMM: hidden layer over the conv output
// concatenated with the static features.
func denseShape(net rl.NetConfig) (k, hidden int) {
	head := mdp.HistoryFeatureDim(net.HistLen)
	positions := (head-net.Kernel)/net.Stride + 1
	return positions*net.Filters + mdp.FeatureDim(net.HistLen) - head, net.Hidden
}

// flopsPerDecision is the multiply-adds ×2 of one forward pass, computed
// from the shape (not measured).
func flopsPerDecision(net rl.NetConfig) float64 {
	head := mdp.HistoryFeatureDim(net.HistLen)
	positions := (head-net.Kernel)/net.Stride + 1
	k, hidden := denseShape(net)
	return 2 * float64(positions*net.Filters*net.Kernel+k*hidden+hidden*mdp.NumActions)
}

// kernelProbes fills the serving-side kernel metrics for net.
func kernelProbes(res *result, net rl.NetConfig) {
	res.Layers["par.forshards_us"] = us(timeMedian(probeBudget, func() {
		par.ForShards(16, 0, func(int) {})
	}))

	agent := rl.NewAgent(net, net.BuildActor(rng.New(7)))
	fd := mdp.FeatureDim(net.HistLen)
	for _, m := range []struct {
		rows int
		name string
	}{{64, "rl.decide_us_per_row_m64"}, {1024, "rl.decide_us_per_row_m1024"}} {
		x := probeMatrix(m.rows, fd, 1)
		out := make([]pricing.Tier, m.rows)
		d := timeMedian(probeBudget, func() { agent.DecideBatch(x, out, 1) })
		res.Layers[m.name] = us(d) / float64(m.rows)
	}

	actor := net.BuildActor(rng.New(7))
	x := probeMatrix(1024, fd, 2)
	res.Layers["nn.forward_us_per_row"] = us(timeMedian(probeBudget, func() { actor.ForwardBatch(x, 1) })) / 1024

	k, hidden := denseShape(net)
	a := probeMatrix(1024, k, 3)
	pb := mat.PackTransBTo(nil, probeMatrix(hidden, k, 4))
	bias := make([]float64, hidden)
	var dst *mat.Matrix
	d := timeMedian(probeBudget, func() { dst = mat.MulPackTransBBiasTo(dst, a, pb, bias, 1) })
	res.Layers["mat.gemm_gflops_fwd"] = 2 * 1024 * float64(k) * float64(hidden) / d.Seconds() / 1e9
	res.Layers["mat.flops_per_decision"] = flopsPerDecision(net)
}

// trainKernelProbes adds the training-side kernel metrics to kernelProbes':
// the backward pass and weight-gradient GEMM on an E×NSteps arena, and the
// environment bank's two lockstep kernels.
func trainKernelProbes(res *result, net rl.NetConfig, envs, nsteps int, src *rl.TraceSource) {
	kernelProbes(res, net)
	rows := envs * nsteps
	fd := mdp.FeatureDim(net.HistLen)
	actor := net.BuildActor(rng.New(7))
	x := probeMatrix(rows, fd, 5)
	dy := probeMatrix(rows, mdp.NumActions, 6)
	actor.ForwardBatch(x, 1)
	res.Layers["nn.backward_us_per_row"] = us(timeMedian(probeBudget, func() { actor.BackwardBatch(dy, 1) })) / float64(rows)

	k, hidden := denseShape(net)
	dyT := probeMatrix(hidden, rows, 7)
	px := mat.PackTransposeTo(nil, probeMatrix(rows, k, 8))
	grad := mat.New(hidden, k)
	d := timeMedian(probeBudget, func() { mat.MulPackAccTo(grad, dyT, px, 1) })
	res.Layers["mat.gemm_gflops_grad"] = 2 * float64(hidden) * float64(rows) * float64(k) / d.Seconds() / 1e9

	bank := mdp.NewEnvBank(envs)
	r := rng.New(9)
	for i := 0; i < envs; i++ {
		bank.Install(i, src.NewEnv(r.Split(uint64(i))))
	}
	feats := make([]float64, envs*fd)
	actions := make([]pricing.Tier, envs)
	const steps = 256
	fill := timeMedian(probeBudget, func() {
		for s := 0; s < steps; s++ {
			bank.FillFeatures(feats, fd)
		}
	})
	step := timeMedian(probeBudget, func() {
		for s := 0; s < steps; s++ {
			for i := range actions {
				actions[i] = pricing.Tier((s + i) % pricing.NumTiers)
			}
			bank.StepAll(actions)
			for i, done := range bank.Done {
				if done {
					bank.ResetEnv(i)
				}
			}
		}
	})
	res.Layers["mdp.fillfeatures_ns_per_env"] = float64(fill.Nanoseconds()) / float64(steps*envs)
	res.Layers["mdp.stepall_ns_per_env"] = float64(step.Nanoseconds()) / float64(steps*envs)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
