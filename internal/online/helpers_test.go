package online

import (
	"fmt"
	"math"
	"testing"

	"minicost/internal/agentserver"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// testNet is a deliberately tiny architecture (HistLen 4) so fine-tune
// epochs and gate evaluations finish in milliseconds.
func testNet() rl.NetConfig {
	return rl.NetConfig{HistLen: 4, Filters: 8, Kernel: 2, Stride: 1, Hidden: 16}
}

// testA3CConfig is the paper configuration shrunk onto testNet, at one
// worker with two environments in lockstep (EnvsPerWorker=2), the way
// minicostd drives fine-tuning by default.
func testA3CConfig(seed uint64) rl.A3CConfig {
	cfg := rl.DefaultA3CConfig()
	cfg.Net = testNet()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 2
	cfg.Seed = seed
	return cfg
}

func testTrainer(t testing.TB, seed uint64) *rl.A3C {
	t.Helper()
	tr, err := rl.NewA3C(testA3CConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// testTrace builds a seeded synthetic trace in the smoke traffic's hot regime
// (or the cold+bulky drifted regime) — the same distributions the drift
// tests use.
func testTrace(t testing.TB, files, days int, seed uint64, cold bool) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{Days: days}
	r := rng.New(seed)
	for i := 0; i < files; i++ {
		base := r.Float64()
		size := 0.01 + base*base*50
		readRate := base * 2000
		writeRate := base * 20
		if cold {
			size = 0.1 + base*base*400
			readRate = base * 20
			writeRate = base * 2
		}
		reads := make([]float64, days)
		writes := make([]float64, days)
		for d := 0; d < days; d++ {
			reads[d] = readRate * float64(1+(i+d)%7) / 7
			writes[d] = writeRate * float64(1+(i+d)%3) / 3
		}
		tr.Files = append(tr.Files, trace.FileMeta{ID: i, SizeGB: size})
		tr.Reads = append(tr.Reads, reads)
		tr.Writes = append(tr.Writes, writes)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// synthBatch builds day d's observations for n files, matching the smoke
// scripts' traffic (including the drifted regime).
func synthBatch(n, d int, seed uint64, drifted bool) []agentserver.FileObservation {
	files := make([]agentserver.FileObservation, n)
	for i := 0; i < n; i++ {
		r := rng.New(seed + uint64(i)*2654435761)
		base := r.Float64()
		if drifted {
			files[i] = agentserver.FileObservation{
				ID:     fmt.Sprintf("f%06d", i),
				SizeGB: 0.1 + base*base*400,
				Reads:  base * 20 * float64(1+(i+d)%7) / 7,
				Writes: base * 2 * float64(1+(i+d)%3) / 3,
			}
		} else {
			files[i] = agentserver.FileObservation{
				ID:     fmt.Sprintf("f%06d", i),
				SizeGB: 0.01 + base*base*50,
				Reads:  base * 2000 * float64(1+(i+d)%7) / 7,
				Writes: base * 20 * float64(1+(i+d)%3) / 3,
			}
		}
	}
	return files
}

// calibrate observes the calibBatches batches of files hot-regime files that
// become the drift baseline.
func calibrate(t *testing.T, srv *agentserver.Server, files int) {
	t.Helper()
	for b := 0; b < calibBatches; b++ {
		observe(t, srv, synthBatch(files, b, 7, false)...)
	}
}

// bitwiseEq fails unless got and want are element-for-element bit-identical.
func bitwiseEq(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: elem %d = %v, want %v (not bitwise equal)", name, i, got[i], want[i])
		}
	}
}
