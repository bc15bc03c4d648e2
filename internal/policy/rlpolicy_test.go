package policy

import (
	"sync"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/par"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

func rlTestFixture(t *testing.T, files, days int, seed uint64) (*rl.Agent, *trace.Trace, *costmodel.Model) {
	t.Helper()
	cfg := rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
	agent := rl.NewAgent(cfg, cfg.BuildActor(rng.New(seed)))
	gen := trace.DefaultGenConfig()
	gen.NumFiles = files
	gen.Days = days
	gen.Seed = seed
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return agent, tr, costmodel.New(pricing.Azure())
}

// assignmentsEqual reports whether two assignments agree tier-for-tier.
func assignmentsEqual(a, b costmodel.Assignment) (int, int, bool) {
	if len(a) != len(b) {
		return -1, -1, false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return i, -1, false
		}
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return i, d, false
			}
		}
	}
	return 0, 0, true
}

// assignSingleSample is Assign's oracle, the pre-batching serving loop: one
// cloned network per goroutine task and one Decide — a one-row batch — per
// (file, day) of an mdp.Env episode, day 0 served in the initial tier.
func (p RL) assignSingleSample(tr *trace.Trace, m *costmodel.Model, initial pricing.Tier) (costmodel.Assignment, error) {
	histLen := p.HistLen
	if histLen <= 0 {
		histLen = p.Agent.Net.HistLen
	}
	asg := costmodel.NewAssignment(tr.NumFiles(), tr.Days)
	reward := mdp.DefaultReward()
	errs := make([]error, tr.NumFiles())
	par.For(tr.NumFiles(), p.Workers, func(i int) {
		// Each goroutine needs its own network (activation caches).
		agent := p.Agent.Clone()
		env, err := mdp.NewEnv(m, tr.Files[i].SizeGB, tr.Reads[i], tr.Writes[i], initial, histLen, reward)
		if err != nil {
			errs[i] = err
			return
		}
		plan := asg[i]
		plan[0] = initial
		state := env.Reset()
		for d := 1; d < tr.Days; d++ {
			tier := agent.Decide(&state)
			next, _, _, _, err := env.Step(tier)
			if err != nil {
				errs[i] = err
				return
			}
			plan[d] = tier
			state = next
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return asg, nil
}

// TestRLBatchedMatchesSingleSample is the rewrite's safety net: for a fixed
// seed, the batched day-major engine must produce the exact assignment the
// legacy single-sample loop produced, across worker counts, batch sizes and
// initial tiers. Assign picks its own batch size; explicit chunkings go
// through rl.PlanTrace, the engine Assign runs.
func TestRLBatchedMatchesSingleSample(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		agent, tr, m := rlTestFixture(t, 57, 13, seed)
		for _, initial := range []pricing.Tier{pricing.Hot, pricing.Archive} {
			want, err := RL{Agent: agent, Workers: 1}.assignSingleSample(tr, m, initial)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []struct{ workers, batch int }{
				{0, 0},
				{1, 0},
				{7, 9},
				{2, 1},
			} {
				var got costmodel.Assignment
				if cfg.batch == 0 {
					got, err = RL{Agent: agent, Workers: cfg.workers}.Assign(tr, m, initial)
				} else {
					got, err = rl.PlanTrace(rl.NewReplicaPool(agent), tr, initial, cfg.batch, cfg.workers)
				}
				if err != nil {
					t.Fatal(err)
				}
				if f, d, ok := assignmentsEqual(want, got); !ok {
					t.Fatalf("seed %d workers=%d batch=%d initial=%v: batched differs from single-sample at file %d day %d",
						seed, cfg.workers, cfg.batch, initial, f, d)
				}
			}
		}
	}
}

// TestRLAssignEquivalentAcrossPaperWidths replays a generated trace through
// Assign at every network width Fig. 11 sweeps and asserts the assignment is
// identical to the single-sample oracle's.
func TestRLAssignEquivalentAcrossPaperWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full width sweep is slow; TestRLBatchedMatchesSingleSample covers one width")
	}
	gen := trace.DefaultGenConfig()
	gen.NumFiles = 40
	gen.Days = 10
	gen.Seed = 42
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.New(pricing.Azure())
	for wi, width := range []int{4, 16, 32, 64, 128} { // experiments.PaperWidths
		cfg := rl.NetConfig{HistLen: 7, Filters: width, Kernel: 4, Stride: 1, Hidden: width}
		agent := rl.NewAgent(cfg, cfg.BuildActor(rng.New(uint64(2000+wi))))
		want, err := RL{Agent: agent}.assignSingleSample(tr, m, pricing.Hot)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RL{Agent: agent, Workers: 3}.Assign(tr, m, pricing.Hot)
		if err != nil {
			t.Fatal(err)
		}
		if f, d, ok := assignmentsEqual(want, got); !ok {
			t.Fatalf("width %d: batched differs from single-sample at file %d day %d", width, f, d)
		}
	}
}

// TestRLAssignReplicaCountBoundedByWorkers asserts the headline allocation
// property of the rewrite: network replicas scale with Workers, never with
// the file count. Assign runs rl.PlanTrace on a pool of its own; the pool is
// passed in here so its replica count can be read.
func TestRLAssignReplicaCountBoundedByWorkers(t *testing.T) {
	agent, tr, _ := rlTestFixture(t, 300, 8, 3)
	const workers = 2
	pool := rl.NewReplicaPool(agent)
	if _, err := rl.PlanTrace(pool, tr, pricing.Hot, 16, workers); err != nil {
		t.Fatal(err)
	}
	if c := pool.Created(); c > workers {
		t.Fatalf("PlanTrace over %d files built %d replicas, want <= %d (bounded by workers)",
			tr.NumFiles(), c, workers)
	}
	// Repeated runs on a warm pool stay within the same bound: replica
	// construction is a one-time cost, not a per-plan cost.
	if _, err := rl.PlanTrace(pool, tr, pricing.Hot, 16, workers); err != nil {
		t.Fatal(err)
	}
	if c := pool.Created(); c > workers {
		t.Fatalf("two PlanTrace runs built %d replicas total, want <= %d", c, workers)
	}
}

// TestRLAssignConcurrentOverOneAgent runs two Assign calls at once over one
// *rl.Agent (under -race in `make check`). Each builds its own replica pool
// over the caller's agent; the pools may only read it — weights shared, not
// copied, and nothing, not even a weight pack, written back into it — so the
// calls neither race nor disturb each other's assignment.
func TestRLAssignConcurrentOverOneAgent(t *testing.T) {
	agent, tr, m := rlTestFixture(t, 120, 9, 7)
	want, err := RL{Agent: agent.Clone(), Workers: 1}.Assign(tr, m, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 2
	got := make([]costmodel.Assignment, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Two workers each: 60-row chunks, past the packed-GEMM
			// threshold.
			got[c], errs[c] = RL{Agent: agent, Workers: 2}.Assign(tr, m, pricing.Hot)
		}(c)
	}
	wg.Wait()
	for c := range got {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		if f, d, ok := assignmentsEqual(want, got[c]); !ok {
			t.Fatalf("concurrent caller %d differs from the lone run at file %d day %d", c, f, d)
		}
	}
}

// TestRLHistLenMismatchIsAnError: a HistLen other than the agent's own
// window is refused by Assign and by Score, never reaches the network (where
// it would panic on a wrong input width), while 0 and the agent's own window
// plan.
func TestRLHistLenMismatchIsAnError(t *testing.T) {
	agent, tr, m := rlTestFixture(t, 9, 12, 5) // a 7-day agent
	for _, c := range []struct {
		histLen int
		ok      bool
	}{{5, false}, {9, false}, {-7, false}, {0, true}, {7, true}} {
		p := RL{Agent: agent, HistLen: c.histLen}
		_, errAssign := p.Assign(tr, m, pricing.Hot)
		_, errScore := Score(m, tr, pricing.Hot, 1, p)
		for _, r := range []struct {
			what string
			err  error
		}{{"Assign", errAssign}, {"Score", errScore}} {
			if c.ok && r.err != nil {
				t.Errorf("HistLen %d: %s: %v", c.histLen, r.what, r.err)
			}
			if !c.ok && r.err == nil {
				t.Errorf("HistLen %d on a %d-day agent: %s accepted it", c.histLen, agent.Net.HistLen, r.what)
			}
		}
	}
}
