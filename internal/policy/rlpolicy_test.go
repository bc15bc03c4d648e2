package policy

import (
	"sync"
	"testing"

	"minicost/internal/costmodel"
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

// TestRLBatchedMatchesSingleSample is the rewrite's safety net: for a fixed
// seed, the batched day-major engine must produce the exact assignment the
// legacy single-sample loop produced, across worker counts, batch sizes and
// initial tiers.
func TestRLBatchedMatchesSingleSample(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		agent, tr, m := rlTestFixture(t, 57, 13, seed)
		for _, initial := range []pricing.Tier{pricing.Hot, pricing.Archive} {
			want, err := RL{Agent: agent, SingleSample: true, Workers: 1}.Assign(tr, m, initial)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []RL{
				{Agent: agent},
				{Agent: agent, Workers: 1},
				{Agent: agent, Workers: 7, BatchRows: 9},
				{Agent: agent, Workers: 2, BatchRows: 1},
			} {
				got, err := cfg.Assign(tr, m, initial)
				if err != nil {
					t.Fatal(err)
				}
				if f, d, ok := assignmentsEqual(want, got); !ok {
					t.Fatalf("seed %d workers=%d batch=%d initial=%v: batched differs from single-sample at file %d day %d",
						seed, cfg.Workers, cfg.BatchRows, initial, f, d)
				}
			}
		}
	}
}

// TestRLAssignReplicaCountBoundedByWorkers asserts the headline allocation
// property of the rewrite: network replicas scale with Workers, never with
// the file count.
func TestRLAssignReplicaCountBoundedByWorkers(t *testing.T) {
	agent, tr, m := rlTestFixture(t, 300, 8, 3)
	const workers = 2
	pool := rl.NewReplicaPool(agent)
	if _, err := (RL{Agent: agent, Workers: workers, Pool: pool, BatchRows: 16}).Assign(tr, m, pricing.Hot); err != nil {
		t.Fatal(err)
	}
	if c := pool.Created(); c > workers {
		t.Fatalf("Assign over %d files built %d replicas, want <= %d (bounded by Workers)",
			tr.NumFiles(), c, workers)
	}
	// Repeated runs on a warm pool stay within the same bound: replica
	// construction is a one-time cost, not a per-Assign cost.
	if _, err := (RL{Agent: agent, Workers: workers, Pool: pool, BatchRows: 16}).Assign(tr, m, pricing.Hot); err != nil {
		t.Fatal(err)
	}
	if c := pool.Created(); c > workers {
		t.Fatalf("two Assign runs built %d replicas total, want <= %d", c, workers)
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
			// BatchRows past the packed-GEMM threshold, two workers each.
			got[c], errs[c] = RL{Agent: agent, Workers: 2, BatchRows: 40}.Assign(tr, m, pricing.Hot)
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
