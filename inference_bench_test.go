// Inference-engine benchmarks: the batched GEMM engine behind policy.RL, at
// the paper's network configuration (128 filters / 128 hidden, 14-day
// history — §6.1) and at the Quick test configuration, replaying a generated
// trace:
//
//	go test -bench=Inference -benchtime=2x
//
// The per-decision cost is reported as a custom ns/decision metric
// (decisions = files × days).
package minicost_test

import (
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// inferenceConfig pairs a network shape with the trace it is benchmarked on.
type inferenceConfig struct {
	name  string
	net   rl.NetConfig
	files int
	days  int
}

func inferenceConfigs() []inferenceConfig {
	return []inferenceConfig{
		{
			// The paper's serving configuration.
			name:  "paper128",
			net:   rl.NetConfig{HistLen: 14, Filters: 128, Kernel: 4, Stride: 1, Hidden: 128},
			files: 512,
			days:  14,
		},
		{
			// The Quick lab profile's network.
			name:  "quick16",
			net:   rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32},
			files: 512,
			days:  14,
		},
	}
}

func inferenceFixture(tb testing.TB, cfg inferenceConfig) (*rl.Agent, *trace.Trace, *costmodel.Model) {
	tb.Helper()
	agent := rl.NewAgent(cfg.net, cfg.net.BuildActor(rng.New(7)))
	gen := trace.DefaultGenConfig()
	gen.NumFiles = cfg.files
	gen.Days = cfg.days
	gen.Seed = 7
	tr, err := trace.Generate(gen)
	if err != nil {
		tb.Fatal(err)
	}
	return agent, tr, costmodel.New(pricing.Azure())
}

func benchmarkInference(b *testing.B, p policy.RL, cfg inferenceConfig) {
	agent, tr, m := inferenceFixture(b, cfg)
	p.Agent = agent
	decisions := float64(tr.NumFiles() * tr.Days)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Assign(tr, m, pricing.Hot); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/decisions, "ns/decision")
}

// BenchmarkInferenceBatched measures the batched engine: day-major stepping,
// one GEMM per layer per day per chunk, pooled replicas.
func BenchmarkInferenceBatched(b *testing.B) {
	for _, cfg := range inferenceConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			benchmarkInference(b, policy.RL{}, cfg)
		})
	}
}
