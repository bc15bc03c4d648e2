package rl

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

func testNetConfig() NetConfig {
	return NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
}

func randomState(r *rng.RNG, histLen int) mdp.State {
	s := mdp.State{
		ReadHistory:  make([]float64, histLen),
		WriteHistory: make([]float64, histLen),
		SizeGB:       0.01 + r.Float64(),
		Tier:         pricing.Tier(r.Intn(pricing.NumTiers)),
	}
	for i := range s.ReadHistory {
		s.ReadHistory[i] = r.Float64() * 1000
		s.WriteHistory[i] = r.Float64() * 100
	}
	return s
}

func TestDecideBatchMatchesDecide(t *testing.T) {
	cfg := testNetConfig()
	r := rng.New(11)
	agent := NewAgent(cfg, cfg.BuildActor(r))
	const batch = 97
	states := make([]mdp.State, batch)
	x := mat.New(batch, mdp.FeatureDim(cfg.HistLen))
	for i := range states {
		states[i] = randomState(r, cfg.HistLen)
		states[i].FeaturesInto(x.Row(i))
	}
	got := make([]pricing.Tier, batch)
	agent.DecideBatch(x, got, 1)
	for i := range states {
		if want := agent.Decide(&states[i]); got[i] != want {
			t.Fatalf("state %d: DecideBatch %v, Decide %v", i, got[i], want)
		}
	}
}

func TestDecideBatchSteadyStateAllocFree(t *testing.T) {
	cfg := testNetConfig()
	r := rng.New(12)
	agent := NewAgent(cfg, cfg.BuildActor(r))
	x := mat.New(64, mdp.FeatureDim(cfg.HistLen))
	for i := 0; i < x.Rows; i++ {
		s := randomState(r, cfg.HistLen)
		s.FeaturesInto(x.Row(i))
	}
	out := make([]pricing.Tier, x.Rows)
	agent.DecideBatch(x, out, 1) // warm scratch
	allocs := testing.AllocsPerRun(10, func() { agent.DecideBatch(x, out, 1) })
	if allocs != 0 {
		t.Fatalf("steady-state DecideBatch allocates %.0f times per call, want 0", allocs)
	}
}

func TestDecideTraceMatchesPerFileLoop(t *testing.T) {
	cfg := testNetConfig()
	r := rng.New(13)
	agent := NewAgent(cfg, cfg.BuildActor(r))
	gen := trace.DefaultGenConfig()
	gen.NumFiles = 23
	gen.Days = 12
	gen.Seed = 5
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.New(pricing.Azure())
	reward := mdp.DefaultReward()

	asg := make(costmodel.Assignment, tr.NumFiles())
	if err := agent.DecideTrace(tr, 0, tr.NumFiles(), pricing.Hot, asg); err != nil {
		t.Fatal(err)
	}
	// Reference: the single-sample per-file loop, stepping each file through
	// an mdp.Env from day 1; day 0 is served in the initial tier.
	single := agent.Clone()
	for i := 0; i < tr.NumFiles(); i++ {
		if asg[i][0] != pricing.Hot {
			t.Fatalf("file %d day 0: batched %v, want the initial tier", i, asg[i][0])
		}
		env, err := mdp.NewEnv(model, tr.Files[i].SizeGB, tr.Reads[i], tr.Writes[i], pricing.Hot, cfg.HistLen, reward)
		if err != nil {
			t.Fatal(err)
		}
		state := env.Reset()
		for d := 1; d < tr.Days; d++ {
			tier := single.Decide(&state)
			if asg[i][d] != tier {
				t.Fatalf("file %d day %d: batched %v, single-sample %v", i, d, asg[i][d], tier)
			}
			next, _, _, _, err := env.Step(tier)
			if err != nil {
				t.Fatal(err)
			}
			state = next
		}
	}
}

// decideRows returns a's DecideBatch over x — enough rows to run the packed
// GEMM — as a fresh slice.
func decideRows(a *Agent, x *mat.Matrix) []pricing.Tier {
	out := make([]pricing.Tier, x.Rows)
	a.DecideBatch(x, out, 1)
	return out
}

// stateBatch returns a feature matrix of random states.
func stateBatch(r *rng.RNG, cfg NetConfig, rows int) *mat.Matrix {
	x := mat.New(rows, mdp.FeatureDim(cfg.HistLen))
	for i := 0; i < rows; i++ {
		s := randomState(r, cfg.HistLen)
		s.FeaturesInto(x.Row(i))
	}
	return x
}

func TestReplicaPoolReuseAndSwap(t *testing.T) {
	cfg := testNetConfig()
	agent := NewAgent(cfg, cfg.BuildActor(rng.New(14)))
	pool := NewReplicaPool(agent)

	r1 := pool.Get()
	pool.Put(r1)
	r2 := pool.Get()
	if r1 != r2 {
		t.Fatal("pool did not reuse the returned replica")
	}
	if pool.Created() != 1 {
		t.Fatalf("Created = %d, want 1", pool.Created())
	}
	x := stateBatch(rng.New(16), cfg, 97)
	if got, want := decideRows(r2.Agent, x), decideRows(agent, x); !slices.Equal(got, want) {
		t.Fatal("replica and source decide a batch differently")
	}
	if pool.Packs() != 1 {
		t.Fatalf("Packs = %d after one source, a replica and a batch, want 1", pool.Packs())
	}

	// A swap must invalidate outstanding and pooled replicas.
	next := NewAgent(cfg, cfg.BuildActor(rng.New(15)))
	pool.Swap(next)
	pool.Put(r2) // stale: must be dropped
	r3 := pool.Get()
	if r3 == r2 {
		t.Fatal("pool handed back a stale replica after Swap")
	}
	if pool.Created() != 1 {
		t.Fatalf("Created after swap = %d, want 1", pool.Created())
	}

	// Every replica handed out after the swap decides with the new source's
	// weights, not the old one's — one sample at a time and by the batch,
	// both against the pack built by Swap.
	want := decideRows(next, x)
	if slices.Equal(want, decideRows(agent, x)) {
		t.Fatal("old and new source agree on the whole batch: the comparisons below pin nothing")
	}
	r4 := pool.Get()
	s := randomState(rng.New(16), cfg.HistLen)
	for i, rep := range []*Replica{r3, r4} {
		if got, want := rep.Decide(&s), next.Decide(&s); got != want {
			t.Fatalf("replica %d decided %v, fresh source %v", i, got, want)
		}
		if got := decideRows(rep.Agent, x); !slices.Equal(got, want) {
			t.Fatalf("replica %d decides the batch with stale weights after Swap", i)
		}
	}
	if pool.Packs() != 2 {
		t.Fatalf("Packs = %d after one Swap, want 2", pool.Packs())
	}
}

// TestReplicaSharesWeights pins what a replica costs and what it may not do.
// At the paper's network the hidden weight block is 3.3 MB; a deep copy
// brought as much again in gradients nobody reads, and a pack per replica a
// third time. A second Get must stay far under one block — it allocates
// layer structs, no weights, gradients or packs (activation scratch comes
// with the first batch and is sized by it, not by the weights) — and writing
// a replica's parameters, which are the source's, must panic.
func TestReplicaSharesWeights(t *testing.T) {
	cfg := DefaultNetConfig()
	agent := NewAgent(cfg, cfg.BuildActor(rng.New(18)))
	pool := NewReplicaPool(agent)
	first := pool.Get()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	second := pool.Get()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("second Get allocated %d bytes, want under 64 KiB (a weight block is %d)", got, 8*len(agent.ParamVector()))
	}
	if first == second || pool.Created() != 2 || pool.Packs() != 1 {
		t.Fatalf("two outstanding replicas: created %d, packs %d, want 2 and 1", pool.Created(), pool.Packs())
	}

	v := agent.ParamVector()
	for name, op := range map[string]func(){
		"SetParamVector":  func() { second.actor.SetParamVector(v) },
		"BindParamVector": func() { second.actor.BindParamVector(v) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a pooled replica did not panic", name)
				}
			}()
			op()
		}()
	}
}

// TestReplicaPoolSwapUnderLoad runs deciders against a swapper (under -race
// in `make check`): replicas share the source's weights and packs, so any
// write to either after construction would show here, and every batch must
// be decided wholly by one source — the one current when its replica was
// taken or a later one, never a mixture.
func TestReplicaPoolSwapUnderLoad(t *testing.T) {
	cfg := testNetConfig()
	sources := []*Agent{
		NewAgent(cfg, cfg.BuildActor(rng.New(20))),
		NewAgent(cfg, cfg.BuildActor(rng.New(21))),
		NewAgent(cfg, cfg.BuildActor(rng.New(22))),
	}
	x := stateBatch(rng.New(23), cfg, 48)
	want := make([][]pricing.Tier, len(sources))
	for i, a := range sources {
		want[i] = decideRows(a.Clone(), x)
	}
	pool := NewReplicaPool(sources[0])
	const deciders, rounds = 3, 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for d := 0; d < deciders; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]pricing.Tier, x.Rows)
			for i := 0; i < rounds; i++ {
				rep := pool.Get()
				rep.DecideBatch(x, out, 1)
				pool.Put(rep)
				if !slices.ContainsFunc(want, func(w []pricing.Tier) bool { return slices.Equal(w, out) }) {
					t.Error("a batch was decided by no single source's weights")
					return
				}
			}
		}()
	}
	swaps := 0
	go func() {
		wg.Wait()
		close(stop)
	}()
	for running := true; running; {
		select {
		case <-stop:
			running = false
		default:
			swaps++
			pool.Swap(sources[swaps%len(sources)])
			runtime.Gosched()
		}
	}
	if got := pool.Packs(); got != int64(1+swaps) {
		t.Fatalf("Packs = %d after %d swaps, want %d", got, swaps, 1+swaps)
	}
	rep := pool.Get()
	if got := decideRows(rep.Agent, x); !slices.Equal(got, want[swaps%len(sources)]) {
		t.Fatal("after the last Swap a fresh replica does not decide with its weights")
	}
}

func TestReplicaPoolBoundedByConcurrency(t *testing.T) {
	cfg := testNetConfig()
	agent := NewAgent(cfg, cfg.BuildActor(rng.New(17)))
	pool := NewReplicaPool(agent)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rep := pool.Get()
				pool.Put(rep)
			}
		}()
	}
	wg.Wait()
	if c := pool.Created(); c > workers {
		t.Fatalf("pool created %d replicas for %d concurrent workers", c, workers)
	}
}

// TestDecideTraceSteadyStateAllocFree gates the serving hot path end to end:
// once an agent has served a chunk (history window and log series built,
// plans sized, network scratch warm), re-serving the same-shaped chunk
// allocates nothing. Six files run the packed products under one eight-row
// group; 67 run them over two row panels, where every layer's last column
// tile — all of the 3-wide output layer — is ragged and runs on a stack
// panel.
func TestDecideTraceSteadyStateAllocFree(t *testing.T) {
	cfg := smallA3CConfig()
	for _, files := range []int{6, 67} {
		t.Run(fmt.Sprintf("files=%d", files), func(t *testing.T) {
			agent := NewAgent(cfg.Net, cfg.Net.BuildActor(rng.New(9)))
			tr := polarTrace(t, files, 20)
			out := make(costmodel.Assignment, tr.NumFiles())

			serve := func() {
				if err := agent.DecideTrace(tr, 0, tr.NumFiles(), pricing.Hot, out); err != nil {
					t.Fatal(err)
				}
			}
			serve()
			allocs := testing.AllocsPerRun(5, serve)
			if allocs != 0 {
				t.Fatalf("steady-state DecideTrace allocates %.0f/op, want 0", allocs)
			}
		})
	}
}

// TestDecideTraceReusedEnvsMatchFresh pins the scratch-recycling path: a
// second DecideTrace call over a different file range (through the reused
// feature matrix, tier buffer and history window) must produce exactly the
// plans a fresh agent computes.
func TestDecideTraceReusedEnvsMatchFresh(t *testing.T) {
	cfg := smallA3CConfig()
	r := rng.New(11)
	actor := cfg.Net.BuildActor(r)
	tr := polarTrace(t, 8, 15)

	reused := NewAgent(cfg.Net, actor)
	warm := make(costmodel.Assignment, tr.NumFiles())
	if err := reused.DecideTrace(tr, 0, 5, pricing.Hot, warm); err != nil {
		t.Fatal(err)
	}
	got := make(costmodel.Assignment, tr.NumFiles())
	if err := reused.DecideTrace(tr, 2, 8, pricing.Cool, got); err != nil {
		t.Fatal(err)
	}

	fresh := NewAgent(cfg.Net, actor.Clone())
	want := make(costmodel.Assignment, tr.NumFiles())
	if err := fresh.DecideTrace(tr, 2, 8, pricing.Cool, want); err != nil {
		t.Fatal(err)
	}
	for f := 2; f < 8; f++ {
		for d := 0; d < tr.Days; d++ {
			if got[f][d] != want[f][d] {
				t.Fatalf("file %d day %d: reused-env plan %v, fresh plan %v", f, d, got[f][d], want[f][d])
			}
		}
	}
}

// TestDecideBatchWorkersArgumentSerialOnly pins DecideBatch's workers
// argument: 0 and 1 decide on the calling goroutine, alike, and anything
// else panics.
func TestDecideBatchWorkersArgumentSerialOnly(t *testing.T) {
	cfg := testNetConfig()
	r := rng.New(13)
	agent := NewAgent(cfg, cfg.BuildActor(r))
	x := mat.New(23, mdp.FeatureDim(cfg.HistLen))
	for i := 0; i < x.Rows; i++ {
		s := randomState(r, cfg.HistLen)
		s.FeaturesInto(x.Row(i))
	}
	want := make([]pricing.Tier, x.Rows)
	agent.DecideBatch(x, want, 1)
	got := make([]pricing.Tier, x.Rows)
	agent.DecideBatch(x, got, 0)
	if !slices.Equal(got, want) {
		t.Fatalf("DecideBatch workers 0 = %v, workers 1 = %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DecideBatch with workers 2 did not panic")
		}
	}()
	agent.DecideBatch(x, got, 2)
}
