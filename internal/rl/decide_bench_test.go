package rl

import (
	"testing"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/pricing"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// benchMatrix returns a rows×cols matrix of fixed values in [-1, 1): random
// signs are what a rectifier with a data-dependent branch mispredicts on.
func benchMatrix(rows, cols int, seed uint64) *mat.Matrix {
	m := mat.New(rows, cols)
	r := rng.New(seed)
	for i := range m.Data {
		m.Data[i] = r.Float64()*2 - 1
	}
	return m
}

// BenchmarkDecideBatch attributes one batched decision at the paper's
// 14/128/128 network to its layers, one thread, in µs per decided row:
//
//	front/m64      the fused Split∘Conv1D∘ReLU∘concat pass alone
//	front/quick16/m64, front/boot64/m64
//	               the same pass at the harness's pricing network (7/16/32)
//	               and at BenchmarkPlanTrace's minicostd row (14/32/64),
//	               where the front-end weighs most in a decided row
//	hidden/m64     the hidden layer's packed GEMM alone, weights pre-packed
//	replica/m64    DecideBatch on a pooled replica at the batch each of 16
//	               shards hands it on a 1024-file all-dirty plan
//	replica/m61    the same at a hash-spread shard's batch, which is rarely
//	               a multiple of the AVX-512 kernel's eight rows: seven
//	               groups of eight and five rows on the one-row kernel
//	replica/m1024  the same at 1024 rows: flat in the batch length
//	replica/m1, replica/m4, replica/m8
//	               the same at the short batches of a one-off decision and
//	               of replan-sparse's shards (≈4 dirty files each)
//	bare/m64       an agent outside any pool, which packs its weights on
//	               every call (the shape the end-to-end harness's
//	               rl.decide_us_per_row_m* probe times)
//
// replica/m64 should read close to front/m64 + hidden/m64: what is left is
// the output layer and the argmax.
func BenchmarkDecideBatch(b *testing.B) {
	cfg := DefaultNetConfig()
	fd := mdp.FeatureDim(cfg.HistLen)
	head := mdp.HistoryFeatureDim(cfg.HistLen)
	perRow := func(b *testing.B, rows int, fn func()) {
		fn() // warm the scratch buffers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(rows), "us/row")
	}

	for _, fc := range []struct {
		name string
		net  NetConfig
	}{
		{"front/m64", cfg},
		{"front/quick16/m64", NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}},
		{"front/boot64/m64", NetConfig{HistLen: 14, Filters: 32, Kernel: 4, Stride: 1, Hidden: 64}},
	} {
		b.Run(fc.name, func(b *testing.B) {
			head := mdp.HistoryFeatureDim(fc.net.HistLen)
			conv := nn.NewConv1D(rng.New(1), head, fc.net.Filters, fc.net.Kernel, fc.net.Stride)
			front := nn.NewNetwork(nn.NewSplit(head, nn.NewNetwork(conv, nn.NewReLU())))
			x := benchMatrix(64, mdp.FeatureDim(fc.net.HistLen), 2)
			perRow(b, 64, func() { front.ForwardBatch(x, 1) })
		})
	}
	b.Run("hidden/m64", func(b *testing.B) {
		k := cfg.Filters*((head-cfg.Kernel)/cfg.Stride+1) + fd - head
		pack := mat.PackTransBTo(nil, benchMatrix(cfg.Hidden, k, 3))
		a := benchMatrix(64, k, 4)
		bias := make([]float64, cfg.Hidden)
		var dst *mat.Matrix
		perRow(b, 64, func() { dst = mat.MulPackTransBBiasTo(dst, a, pack, bias, 1) })
	})
	agent := NewAgent(cfg, cfg.BuildActor(rng.New(5)))
	for _, bc := range []struct {
		name string
		rows int
	}{{"replica/m1", 1}, {"replica/m4", 4}, {"replica/m8", 8}, {"replica/m61", 61}, {"replica/m64", 64}, {"replica/m1024", 1024}} {
		b.Run(bc.name, func(b *testing.B) {
			pool := NewReplicaPool(agent)
			rep := pool.Get()
			defer pool.Put(rep)
			x := benchMatrix(bc.rows, fd, 6)
			out := make([]pricing.Tier, bc.rows)
			perRow(b, bc.rows, func() { rep.DecideBatch(x, out, 1) })
		})
	}
	b.Run("bare/m64", func(b *testing.B) {
		x := benchMatrix(64, fd, 6)
		out := make([]pricing.Tier, 64)
		perRow(b, 64, func() { agent.DecideBatch(x, out, 1) })
	})
}

// BenchmarkPlanTrace times the whole decision pass a scoreboard row pays —
// PlanTrace over a generated 200-file × 42-day trace on one worker, one
// 200-row chunk, a pooled replica — in µs per decided file-day:
//
//	harness/7-16-32     the end-to-end harness's pricing network (the
//	                    policy.rl_assign_us_per_file_day probe's shape)
//	minicostd/14-32-64  the network minicostd -online trains from scratch
//	                    when it boots without a checkpoint
//
// Both output layers are 3 wide, a ragged column tile, and every file-day
// encodes a history window (mdp.State.FeaturesInto), so this is where the
// tail tile and the log channel show.
func BenchmarkPlanTrace(b *testing.B) {
	gen := trace.DefaultGenConfig()
	gen.NumFiles, gen.Days, gen.Seed, gen.Workers = 200, 42, 3, 1
	tr, err := trace.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	fileDays := float64(tr.NumFiles() * tr.Days)
	for _, bc := range []struct {
		name string
		net  NetConfig
	}{
		{"harness/7-16-32", NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}},
		{"minicostd/14-32-64", NetConfig{HistLen: 14, Filters: 32, Kernel: 4, Stride: 1, Hidden: 64}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pool := NewReplicaPool(NewAgent(bc.net, bc.net.BuildActor(rng.New(5))))
			plan := func() {
				if _, err := PlanTrace(pool, tr, pricing.Hot, tr.NumFiles(), 1); err != nil {
					b.Fatal(err)
				}
			}
			plan() // warm the replica's scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/fileDays, "us/file-day")
		})
	}
}
