package rl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/nn"
	"minicost/internal/pricing"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// trainParams runs a fresh trainer with cfg through TrainFrom over a
// polar-trace TraceSource and returns copies of the final actor/critic
// parameter vectors plus stats.
func trainParams(t *testing.T, cfg A3CConfig, files, days int, steps int64) ([]float64, []float64, TrainStats) {
	t.Helper()
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := a3c.TrainFrom(traceSource(t, polarTrace(t, files, days), cfg.Net.HistLen), steps)
	if err != nil {
		t.Fatal(err)
	}
	cur := a3c.snap.Load()
	return append([]float64(nil), cur.actor...),
		append([]float64(nil), cur.critic...), stats
}

func assertVectorsBitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: elem %d = %v, want %v (not bitwise equal)", name, i, got[i], want[i])
		}
	}
}

// TestTrainDeterministicAtOneWorker pins the seed contract: two fresh
// trainers with the same configuration reach bitwise-identical parameters.
func TestTrainDeterministicAtOneWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	a1, c1, s1 := trainParams(t, cfg, 6, 12, 300)
	a2, c2, s2 := trainParams(t, cfg, 6, 12, 300)
	if s1 != s2 {
		t.Fatalf("stats diverged across identical runs: %+v vs %+v", s1, s2)
	}
	assertVectorsBitwise(t, "actor", a2, a1)
	assertVectorsBitwise(t, "critic", c2, c1)
}

// TestVecTrainerSeedDeterministic pins the engine's determinism contract: at
// Workers=1, two fresh runs with the same seed must reach bitwise-identical
// parameters and identical stats, at E=1 (the width every caller without an
// explicit one trains at) and at E=4. Kept fast and never skipped so the CI
// race job runs it (see ci.yml).
func TestVecTrainerSeedDeterministic(t *testing.T) {
	for _, envs := range []int{1, 4} {
		cfg := smallA3CConfig()
		cfg.Workers = 1
		cfg.EnvsPerWorker = envs
		const steps = 336 // 12 full 4×7 lockstep rollouts, 48 at E=1
		a1, c1, s1 := trainParams(t, cfg, 6, 12, steps)
		a2, c2, s2 := trainParams(t, cfg, 6, 12, steps)
		if s1 != s2 {
			t.Fatalf("E=%d: stats diverged across identical runs: %+v vs %+v", envs, s1, s2)
		}
		assertVectorsBitwise(t, fmt.Sprintf("E=%d actor", envs), a2, a1)
		assertVectorsBitwise(t, fmt.Sprintf("E=%d critic", envs), c2, c1)
	}
}

// TestVecTrainStatsAccounting pins the engine's bookkeeping on a
// fully deterministic run: Workers=1, E=4, NSteps=7 over 12-day episodes.
// Every lockstep step advances all four members, so 280 total steps is
// exactly 10 rollouts; every member completes an episode every 12 steps, so
// 280/4 = 70 member-steps yield 5 episodes each.
func TestVecTrainStatsAccounting(t *testing.T) {
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 4
	_, _, stats := trainParams(t, cfg, 6, 12, 280)
	if stats.Steps != 280 {
		t.Fatalf("Steps = %d, want 280", stats.Steps)
	}
	if stats.Updates != 10 {
		t.Fatalf("Updates = %d, want 10", stats.Updates)
	}
	if want := int64(4 * 5); stats.Episodes != want {
		t.Fatalf("Episodes = %d, want %d", stats.Episodes, want)
	}
}

// TestVecCheckpointRoundTripResumesTraining is the E=4 counterpart of
// TestCheckpointRoundTripResumesBatchedTraining: a run saved between updates
// and resumed in a fresh trainer must land exactly where the uninterrupted
// run does. The
// engine re-derives every per-env RNG stream from (Seed, worker, member) at
// each TrainFrom call, so no RNG cursor needs to live in the checkpoint —
// this test is what pins that property. Phase budgets are multiples of
// E×NSteps = 28 so every TrainFrom call cuts exactly at an update boundary; SGD
// with annealing disabled makes the comparison exact (the checkpoint omits
// optimizer moments and the global step counter).
func TestVecCheckpointRoundTripResumesTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 4
	cfg.FinalLRFraction = 1
	src := traceSource(t, polarTrace(t, 8, 14), cfg.Net.HistLen)

	orig := newSGDTrainer(t, cfg)
	if _, err := orig.TrainFrom(src, 280); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := orig.TrainFrom(src, 560); err != nil {
		t.Fatal(err)
	}

	resumed := newSGDTrainer(t, cfg)
	if err := resumed.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.TrainFrom(src, 280); err != nil {
		t.Fatal(err)
	}

	resumedCur, origCur := resumed.snap.Load(), orig.snap.Load()
	assertVectorsBitwise(t, "actor", resumedCur.actor, origCur.actor)
	assertVectorsBitwise(t, "critic", resumedCur.critic, origCur.critic)
}

// TestAccumulateVecSteadyStateAllocFree gates the update in the shape the
// worker runs it: once the reused matrices are warm, NSteps
// row-window actor forwards over the arena followed by a full E×NSteps
// accumulate pass (the critic's ForwardBatch, the scalar gradient loop, two
// BackwardParams) allocate nothing.
func TestAccumulateVecSteadyStateAllocFree(t *testing.T) {
	cfg := smallA3CConfig()
	cfg.EnvsPerWorker = 4
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replicas as the worker builds them: flat-backed accumulators, without
	// which ZeroGrad walks (and allocates) the per-layer param list every call.
	actor := a3c.protoActor.BoundClone()
	critic := a3c.protoCritic.BoundClone()
	const nEnvs = 4
	rows := nEnvs * cfg.NSteps
	dim := cfg.Net.featureDim()
	feats := mat.New(rows, dim)
	r := rng.New(11)
	for i := range feats.Data {
		feats.Data[i] = r.Float64()
	}
	rewards := make([]float64, rows)
	actions := make([]int, rows)
	dones := make([]bool, rows)
	boot := make([]float64, nEnvs)
	for i := range rewards {
		rewards[i] = r.Float64() - 0.5
		actions[i] = i % mdp.NumActions
	}
	dones[2*nEnvs+1] = true // exercise a mid-rollout episode boundary
	var vb vecBuf
	run := func() {
		actor.ZeroGrad()
		critic.ZeroGrad()
		var logits *mat.Matrix
		for s := 0; s < cfg.NSteps; s++ {
			logits = actor.ForwardRows(feats, s*nEnvs, (s+1)*nEnvs, 1)
		}
		a3c.accumulateVec(actor, critic, feats, logits, rewards, actions, dones, boot, &vb)
	}
	run() // warm the reused matrices and kernel scratch
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state accumulateVec allocates %.0f/op, want 0", allocs)
	}
}

// TestBindSnapshotRepacksRecycledBuffers is the rl side of the pack-per-bind
// rule (nn's TestForwardBatchSeesRebinds): the parameter server recycles its
// buffers, so with one reader the snapshot published by update u+2 lives at
// the address a replica was bound to at update u, under different values. A
// replica that told binds apart by address would multiply against the old
// pack; it must go by the call. After every bindSnapshot a batch long enough
// for the packed kernels has to equal row-by-row Forward on a fresh network
// set to the published vector.
func TestBindSnapshotRepacksRecycledBuffers(t *testing.T) {
	cfg := smallA3CConfig()
	cfg.EnvsPerWorker = 4
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	actor, critic := a3c.protoActor.BoundClone(), a3c.protoCritic.BoundClone()
	aGrad, cGrad := actor.FlattenGrads(), critic.FlattenGrads()
	r := rng.New(12)
	x := mat.New(32, cfg.Net.featureDim()) // twice nn's packMinRows
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	assertMatchesFresh := func(update int, name string, replica, proto *nn.Network, published []float64) {
		t.Helper()
		fresh := proto.Clone()
		fresh.SetParamVector(published)
		y := replica.ForwardBatch(x, 1)
		for row := 0; row < x.Rows; row++ {
			assertVectorsBitwise(t, fmt.Sprintf("update %d: %s row %d", update, name, row), y.Row(row), fresh.Forward(x.Row(row)))
		}
	}

	boundAt := map[*float64]int{} // a snapshot's address → the last update bound to it
	recycled := false
	var held *paramSnap
	defer func() { releaseSnapshot(held) }()
	for u := 0; u < 6; u++ {
		held = a3c.bindSnapshot(actor, critic, held)
		if prev, ok := boundAt[&held.actor[0]]; ok && u-prev == 2 {
			recycled = true
		}
		boundAt[&held.actor[0]] = u
		assertMatchesFresh(u, "actor", actor, a3c.protoActor, held.actor)
		assertMatchesFresh(u, "critic", critic, a3c.protoCritic, held.critic)
		for _, g := range [][]float64{aGrad, cGrad} {
			for i := range g {
				g[i] = r.NormalMS(0, 1)
			}
		}
		a3c.mu.Lock()
		a3c.applyLocked(aGrad, cGrad)
		a3c.mu.Unlock()
	}
	if !recycled {
		t.Fatal("no snapshot was published at an address bound two updates earlier: the test no longer exercises recycling")
	}
}

// The three network sizes the end-to-end harness trains at, with the lockstep
// width it (or minicostd -online, for boot64) pairs each with; boot64 at E=1
// is also minicostd's bootstrap shape.
var (
	netPaper128 = NetConfig{HistLen: 14, Filters: 128, Kernel: 4, Stride: 1, Hidden: 128}
	netBoot64   = NetConfig{HistLen: 14, Filters: 32, Kernel: 4, Stride: 1, Hidden: 64}
	netQuick16  = NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
)

// harnessTrainer returns a fresh trainer in the end-to-end harness's
// configuration (benchmark/train_offline.go's a3cConfig: the paper's
// defaults, one worker, serial updates) and a TraceSource over a small
// generated trace whose episodes turn over every few rollouts.
func harnessTrainer(tb testing.TB, net NetConfig, envs int) (*A3C, *TraceSource) {
	tb.Helper()
	gen := trace.DefaultGenConfig()
	gen.NumFiles, gen.Days, gen.Seed, gen.Workers = 48, 42, 20, 1
	tr, err := trace.Generate(gen)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultA3CConfig()
	cfg.Net = net
	cfg.Workers = 1
	cfg.EnvsPerWorker = envs
	cfg.Seed = 20
	a3c, err := NewA3C(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := NewTraceSource(costmodel.New(pricing.Azure()), tr, net.HistLen, mdp.DefaultReward(), pricing.Hot)
	if err != nil {
		tb.Fatal(err)
	}
	return a3c, src
}

// paramHash is the harness's: FNV-1a over the published actor and critic
// parameter bits.
func paramHash(a *A3C) uint64 {
	h := fnv.New64a()
	var b [8]byte
	actor, critic := a.ParamVectors()
	for _, v := range [][]float64{actor, critic} {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestVecTrainGoldenHashes is the engine's end-to-end bitwise oracle: the
// per-row oracle pins one update, this pins whole runs — rollout, action
// sampling, episode turnover, parameter server — as parameter hashes. The
// E ≥ 4 constants were recorded at the commit before the update stopped
// packing per forward, re-running the actor's forward and computing the
// feature gradient (PR 20), on both sides of packMinRows: 4-row windows and a
// 28-row arena, 8-row windows and a 56-row arena, 16-row windows and a
// 112-row arena at the paper's network. The E=1 rows (7-row arenas, never
// packed) were recorded when E=1 became every default caller's shape (PR 25).
// Each budget is split over two TrainFrom calls, so replicas are rebuilt and
// every RNG stream re-derived in between. A change to the engine that moves a
// hash changed its arithmetic. The constants are amd64's: the Go compiler
// fuses a multiply and an add on some other architectures, which rounds
// differently.
func TestVecTrainGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes were recorded on amd64; fused multiply-adds round differently")
	}
	for _, c := range []struct {
		net   NetConfig
		envs  int
		steps int64 // per TrainFrom call: a whole number of E×NSteps updates
		want  uint64
	}{
		{NetConfig{HistLen: 14, Filters: 8, Kernel: 4, Stride: 1, Hidden: 8}, 4, 280, 0x6803fb0b3fbea9ea},
		{NetConfig{HistLen: 14, Filters: 8, Kernel: 4, Stride: 1, Hidden: 8}, 1, 280, 0x9327e93118498436},
		{netBoot64, 8, 224, 0xe4687a8554421d7e},
		{netBoot64, 1, 224, 0x703e04e9d42232b4},
		{netPaper128, 16, 224, 0xc805ceeac39e0dd7},
	} {
		a3c, src := harnessTrainer(t, c.net, c.envs)
		for call := int64(1); call <= 2; call++ {
			if _, err := a3c.TrainFrom(src, call*c.steps); err != nil {
				t.Fatal(err)
			}
		}
		if got := paramHash(a3c); got != c.want {
			t.Errorf("%d/%d/%d E=%d: parameter hash %#x after 2×%d steps, want %#x",
				c.net.HistLen, c.net.Filters, c.net.Hidden, c.envs, got, c.steps, c.want)
		}
	}
}

// BenchmarkVecTrainUpdate times the engine the way the end-to-end
// harness's train-offline workload does — one worker, TrainFrom in 512-step
// slices, replicas rebuilt per slice — and reports training steps per second
// at the three sizes the harness trains at:
//
//	paper128/E=16  its timed train phase (file_days_per_s)
//	boot64/E=8     minicostd -online's fine-tune epochs (rl.finetune_steps_per_s)
//	boot64/E=1     minicostd's bootstrap (core.System.Train), every 7-row
//	               window and arena below the packed kernels
//	quick16/E=4    the experiments' Quick profile; a 28-row arena packs, its
//	               4-row rollout windows do not
func BenchmarkVecTrainUpdate(b *testing.B) {
	const slice = 512
	for _, bc := range []struct {
		name string
		net  NetConfig
		envs int
	}{
		{"paper128/E=16", netPaper128, 16},
		{"boot64/E=8", netBoot64, 8},
		{"boot64/E=1", netBoot64, 1},
		{"quick16/E=4", netQuick16, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a3c, src := harnessTrainer(b, bc.net, bc.envs)
			if _, err := a3c.FineTune(src, slice); err != nil { // warm the trace's lazily built state
				b.Fatal(err)
			}
			steps := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := a3c.FineTune(src, slice)
				if err != nil {
					b.Fatal(err)
				}
				steps += stats.Steps
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}
