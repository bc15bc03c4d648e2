// Ablation benchmarks for the design choices DESIGN.md calls out: the
// reward shaping, the training stabilizers (logit decay, sticky
// exploration, reward normalization), worker scaling, and the aggregation
// Ψ knob. Each reports the resulting evaluation cost (normalized by the
// all-hot baseline, lower is better) or throughput as a custom metric.
//
//	go test -bench=Ablation
package minicost_test

import (
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// ablationWorkload is a small fixed workload shared by the ablations.
func ablationWorkload(b *testing.B) (*trace.Trace, *costmodel.Model, float64) {
	b.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.NumFiles = 150
	cfg.Days = 21
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := costmodel.New(pricing.Azure())
	board, err := policy.Score(m, tr, pricing.Hot, 0, policy.Static{Tier: pricing.Hot})
	if err != nil {
		b.Fatal(err)
	}
	return tr, m, board[0].Total.Total()
}

func ablationTrainCfg() rl.A3CConfig {
	cfg := rl.DefaultA3CConfig()
	cfg.Net = rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
	cfg.Workers = 2
	cfg.Seed = 5
	return cfg
}

// trainAndScore trains under trainCfg/reward and returns cost / all-hot.
func trainAndScore(b *testing.B, trainCfg rl.A3CConfig, reward mdp.RewardConfig, steps int64) float64 {
	b.Helper()
	tr, m, hot := ablationWorkload(b)
	a3c, err := rl.NewA3C(trainCfg)
	if err != nil {
		b.Fatal(err)
	}
	src, err := rl.NewTraceSource(m, tr, trainCfg.Net.HistLen, reward, pricing.Hot)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := a3c.TrainFrom(src, steps); err != nil {
		b.Fatal(err)
	}
	board, err := policy.Score(m, tr, pricing.Hot, 0, policy.RL{Agent: a3c.Snapshot(), HistLen: trainCfg.Net.HistLen})
	if err != nil {
		b.Fatal(err)
	}
	return board[0].Total.Total() / hot
}

const ablationSteps = 120000

// BenchmarkAblationRewardPaper trains with the paper's reciprocal reward
// (Eq. 4, auto-α + cap).
func BenchmarkAblationRewardPaper(b *testing.B) {
	var score float64
	for i := 0; i < b.N; i++ {
		score = trainAndScore(b, ablationTrainCfg(), mdp.DefaultReward(), ablationSteps)
	}
	b.ReportMetric(score, "cost/hot")
}

// BenchmarkAblationRewardNegCost trains with the linear −α·C shaping.
func BenchmarkAblationRewardNegCost(b *testing.B) {
	var score float64
	for i := 0; i < b.N; i++ {
		score = trainAndScore(b, ablationTrainCfg(), mdp.NegCostReward(), ablationSteps)
	}
	b.ReportMetric(score, "cost/hot")
}

// BenchmarkAblationRewardUncapped removes the MaxRatio cap from Eq. 4 (the
// configuration that lets cheap-file rewards dominate training).
func BenchmarkAblationRewardUncapped(b *testing.B) {
	reward := mdp.DefaultReward()
	reward.MaxRatio = 0
	var score float64
	for i := 0; i < b.N; i++ {
		score = trainAndScore(b, ablationTrainCfg(), reward, ablationSteps)
	}
	b.ReportMetric(score, "cost/hot")
}

// BenchmarkAblationNoLogitDecay disables the saturation guard.
func BenchmarkAblationNoLogitDecay(b *testing.B) {
	cfg := ablationTrainCfg()
	cfg.LogitDecay = 0
	var score float64
	for i := 0; i < b.N; i++ {
		score = trainAndScore(b, cfg, mdp.DefaultReward(), ablationSteps)
	}
	b.ReportMetric(score, "cost/hot")
}

// BenchmarkAblationNoStickyExploration uses per-step ε-greedy (ExploreHold
// 1), the setting under which entering a cheap tier never looks good.
func BenchmarkAblationNoStickyExploration(b *testing.B) {
	cfg := ablationTrainCfg()
	cfg.ExploreHold = 1
	var score float64
	for i := 0; i < b.N; i++ {
		score = trainAndScore(b, cfg, mdp.DefaultReward(), ablationSteps)
	}
	b.ReportMetric(score, "cost/hot")
}

// BenchmarkAblationNoRewardNorm disables running reward standardization.
func BenchmarkAblationNoRewardNorm(b *testing.B) {
	cfg := ablationTrainCfg()
	cfg.NormalizeRewards = false
	var score float64
	for i := 0; i < b.N; i++ {
		score = trainAndScore(b, cfg, mdp.DefaultReward(), ablationSteps)
	}
	b.ReportMetric(score, "cost/hot")
}

// BenchmarkAblationNoConvFrontEnd shrinks the conv front-end to a single
// filter, approximating its removal while keeping the architecture legal.
func BenchmarkAblationNoConvFrontEnd(b *testing.B) {
	cfg := ablationTrainCfg()
	cfg.Net.Filters = 1
	var score float64
	for i := 0; i < b.N; i++ {
		score = trainAndScore(b, cfg, mdp.DefaultReward(), ablationSteps)
	}
	b.ReportMetric(score, "cost/hot")
}

// BenchmarkAblationDQN trains the replay-based DQN (Algorithm 1's literal
// loop) instead of A3C on the same budget, for a learner-family comparison.
func BenchmarkAblationDQN(b *testing.B) {
	var score float64
	for i := 0; i < b.N; i++ {
		tr, m, hot := ablationWorkload(b)
		cfg := rl.DefaultDQNConfig()
		cfg.Net = ablationTrainCfg().Net
		cfg.Seed = 5
		d, err := rl.NewDQN(cfg)
		if err != nil {
			b.Fatal(err)
		}
		src, err := rl.NewTraceSource(m, tr, cfg.Net.HistLen, mdp.DefaultReward(), pricing.Hot)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Train(src, ablationSteps); err != nil {
			b.Fatal(err)
		}
		board, err := policy.Score(m, tr, pricing.Hot, 0, policy.RL{Agent: d.Agent(), HistLen: cfg.Net.HistLen})
		if err != nil {
			b.Fatal(err)
		}
		score = board[0].Total.Total() / hot
	}
	b.ReportMetric(score, "cost/hot")
}

// BenchmarkAblationWorkers measures training throughput scaling with the
// number of workers per synchronous round (ns per environment step): the
// workers' rollouts run concurrently, their applies one after another.
func BenchmarkAblationWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			tr, m, _ := ablationWorkload(b)
			cfg := ablationTrainCfg()
			cfg.Workers = workers
			a3c, err := rl.NewA3C(cfg)
			if err != nil {
				b.Fatal(err)
			}
			src, err := rl.NewTraceSource(m, tr, cfg.Net.HistLen, mdp.DefaultReward(), pricing.Hot)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := a3c.TrainFrom(src, int64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationAggregationPsi sweeps the Ψ cap on aggregated groups and
// reports the optimal-policy cost on the rewritten trace relative to no
// aggregation.
func BenchmarkAblationAggregationPsi(b *testing.B) {
	l := benchLabGet(b)
	for _, psi := range []int{1, 4, 16, 64} {
		b.Run(benchName("psi", psi), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				r, err := l.Fig13(psi)
				if err != nil {
					b.Fatal(err)
				}
				last := len(r.Days) - 1
				ratio = r.Costs["minicost-w/E"][last] / r.Costs["minicost"][last]
			}
			b.ReportMetric(ratio, "withE/plain")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
