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
	actor, critic := a3c.ParamVectors()
	return actor, critic, stats
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
// exactly 10 rollouts; every member completes an episode every 11 steps (day
// 0 is served in the initial tier, not decided), so 280/4 = 70 member-steps
// yield 6 episodes each.
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
	if want := int64(4 * 6); stats.Episodes != want {
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

	assertVectorsBitwise(t, "actor", resumed.actor, orig.actor)
	assertVectorsBitwise(t, "critic", resumed.critic, orig.critic)
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
			logits = actor.ForwardRows(feats, s*nEnvs, (s+1)*nEnvs)
		}
		a3c.accumulateVec(actor, critic, feats, logits, rewards, actions, dones, boot, &vb)
	}
	run() // warm the reused matrices and kernel scratch
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state accumulateVec allocates %.0f/op, want 0", allocs)
	}
}

// TestRebindRepacksUpdatedVectors is the rl side of the pack-per-bind rule
// (nn's TestForwardBatchSeesRebinds): every round's apply rewrites the global
// vectors in place, so each round re-binds a worker's replicas to the same
// address under different values. A replica that told binds apart by address
// would multiply against the previous round's pack; it must go by the call.
// After every round's rebind a batch long enough for the packed kernels has
// to equal row-by-row Forward on a fresh network set to the global vector.
func TestRebindRepacksUpdatedVectors(t *testing.T) {
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.EnvsPerWorker = 4
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := a3c.newWorker(0, traceSource(t, polarTrace(t, 6, 12), cfg.Net.HistLen))
	r := rng.New(12)
	x := mat.New(32, cfg.Net.featureDim())
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	assertMatchesFresh := func(round int, name string, replica, proto *nn.Network, global []float64) {
		t.Helper()
		fresh := proto.Clone()
		fresh.SetParamVector(global)
		y := replica.ForwardBatch(x, 1)
		for row := 0; row < x.Rows; row++ {
			assertVectorsBitwise(t, fmt.Sprintf("round %d: %s row %d", round, name, row), y.Row(row), rowForward(fresh, x.Row(row)))
		}
	}

	actorAt, criticAt := &a3c.actor[0], &a3c.critic[0]
	before := append([]float64(nil), a3c.actor...)
	for u := 0; u < 6; u++ {
		a3c.mu.RLock()
		w.rollout()
		a3c.mu.RUnlock()
		assertMatchesFresh(u, "actor", w.actor, a3c.protoActor, a3c.actor)
		assertMatchesFresh(u, "critic", w.critic, a3c.protoCritic, a3c.critic)
		a3c.pushUpdate(w.aGrad, w.cGrad, 1)
	}
	if &a3c.actor[0] != actorAt || &a3c.critic[0] != criticAt {
		t.Fatal("the apply moved the global vectors: the test no longer exercises in-place rebinding")
	}
	if hashVectors(before) == hashVectors(a3c.actor) {
		t.Fatal("six applies left the actor unchanged: the test no longer exercises new values at the old address")
	}
}

// The three network sizes the end-to-end harness trains at, with the lockstep
// width it (or minicostd -online, for boot64) pairs each with; boot64 is
// also the shape minicostd -online trains from scratch without a checkpoint.
var (
	netPaper128 = NetConfig{HistLen: 14, Filters: 128, Kernel: 4, Stride: 1, Hidden: 128}
	netBoot64   = NetConfig{HistLen: 14, Filters: 32, Kernel: 4, Stride: 1, Hidden: 64}
	netQuick16  = NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
)

// harnessTrainer returns a fresh trainer in the end-to-end harness's
// configuration (benchmark/train_offline.go's a3cConfig: the paper's
// defaults, serial updates; the harness trains at one worker) at the given
// worker count and lockstep width, and a TraceSource over a small generated
// trace whose episodes turn over every few rollouts.
func harnessTrainer(tb testing.TB, net NetConfig, workers, envs int) (*A3C, *TraceSource) {
	tb.Helper()
	gen := trace.DefaultGenConfig()
	gen.NumFiles, gen.Days, gen.Seed, gen.Workers = 48, 42, 20, 1
	tr, err := trace.Generate(gen)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultA3CConfig()
	cfg.Net = net
	cfg.Workers = workers
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

// paramHash is the harness's: FNV-1a over the global actor and critic
// parameter bits.
func paramHash(a *A3C) uint64 {
	actor, critic := a.ParamVectors()
	return hashVectors(actor, critic)
}

// hashVectors is FNV-1a over the little-endian bits of every element of vs,
// in order.
func hashVectors(vs ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestVecTrainGoldenHashes is the engine's end-to-end bitwise oracle: the
// per-row oracle pins one update, this pins whole runs — rollout, action
// sampling, episode turnover, the rounds' applies — as parameter hashes. The
// one-worker E ≥ 4 constants were recorded at the commit before the update
// stopped packing per forward, re-running the actor's forward and computing
// the feature gradient: 4-row windows and a 28-row arena, 8-row windows and
// a 56-row arena, 16-row windows and a 112-row arena at the paper's network.
// The E=1 rows (7-row arenas) were recorded when E=1 became every default
// caller's shape.
// The W = 2 and W = 4 rows were recorded when training moved to synchronous
// rounds; they run at GOMAXPROCS 1, 2 and 4, since a round's result must not
// depend on how its workers were scheduled. Every row was re-recorded when
// episodes stopped deciding day 0 (mdp's decision rule: day 0 is served in
// the initial tier), which shortens each episode by one step and changes
// its first state, and again when every multiply-accumulate in mat and nn
// became one fused multiply-add. Each budget is split over two
// TrainFrom calls, so replicas are rebuilt and every RNG stream re-derived in
// between. A change to the engine that moves a hash changed its arithmetic.
// The constants are amd64's: mat and nn round the same everywhere, but the
// Go compiler fuses a multiply and an add in rl's own arithmetic on some
// other architectures, which rounds differently.
func TestVecTrainGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes were recorded on amd64; fused multiply-adds round differently")
	}
	net8 := NetConfig{HistLen: 14, Filters: 8, Kernel: 4, Stride: 1, Hidden: 8}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		net     NetConfig
		workers int
		envs    int
		steps   int64 // per TrainFrom call: a whole number of W×E×NSteps rounds
		want    uint64
	}{
		{net8, 1, 4, 280, 0x1a3d308c529707e2},
		{net8, 1, 1, 280, 0x4586f097020085eb},
		{netBoot64, 1, 8, 224, 0x39471515ea190e3c},
		{netBoot64, 1, 1, 224, 0xa1e15d13aacbd155},
		{netPaper128, 1, 16, 224, 0x7625de1a4edcb3ef},
		{net8, 2, 4, 280, 0xb1737acb39307eda},
		{net8, 4, 4, 448, 0xa0a0f0e8cfc57baa},
		{netBoot64, 2, 8, 224, 0x3dee729d42d58632},
		{netBoot64, 4, 8, 448, 0xbbd905a7caea9250},
	} {
		procs := []int{runtime.GOMAXPROCS(0)}
		if c.workers > 1 {
			procs = []int{1, 2, 4}
		}
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			a3c, src := harnessTrainer(t, c.net, c.workers, c.envs)
			for call := int64(1); call <= 2; call++ {
				if _, err := a3c.TrainFrom(src, call*c.steps); err != nil {
					t.Fatal(err)
				}
			}
			if got := paramHash(a3c); got != c.want {
				t.Errorf("%d/%d/%d W=%d E=%d GOMAXPROCS=%d: parameter hash %#x after 2×%d steps, want %#x",
					c.net.HistLen, c.net.Filters, c.net.Hidden, c.workers, c.envs, p, got, c.steps, c.want)
			}
		}
	}
}

// BenchmarkVecTrainUpdate times the engine the way the end-to-end
// harness's train-offline workload does — one worker, TrainFrom in 512-step
// slices, replicas rebuilt per slice — and reports training steps per second
// at the three sizes the harness trains at, and at the short lockstep
// widths the A3C's n-step rollouts run at:
//
//	paper128/E=16  its timed train phase (file_days_per_s)
//	paper128/E=1   the paper's network one environment at a time: 1-row
//	               windows, 7-row arenas
//	boot64/E=8     minicostd -online's fine-tune epochs (rl.finetune_steps_per_s)
//	boot64/E=2     2-row windows, 14-row arenas
//	boot64/E=1     core.System.Train's width at boot64: 1-row windows,
//	               7-row arenas
//	quick16/E=16   its set-up fit (setup_s): 112-row arenas, 16-row windows
//	quick16/E=4    the experiments' Quick profile: 4-row windows, 28-row
//	               arenas
//	quick16/E=1    1-row windows, 7-row arenas
//
// Every Dense product runs on the packed kernel, whatever its row count.
func BenchmarkVecTrainUpdate(b *testing.B) {
	const slice = 512
	for _, bc := range []struct {
		name string
		net  NetConfig
		envs int
	}{
		{"paper128/E=16", netPaper128, 16},
		{"paper128/E=1", netPaper128, 1},
		{"boot64/E=8", netBoot64, 8},
		{"boot64/E=2", netBoot64, 2},
		{"boot64/E=1", netBoot64, 1},
		{"quick16/E=16", netQuick16, 16},
		{"quick16/E=4", netQuick16, 4},
		{"quick16/E=1", netQuick16, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a3c, src := harnessTrainer(b, bc.net, 1, bc.envs)
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
