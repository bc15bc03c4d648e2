package agentserver

import (
	"sync"
	"testing"

	"minicost/internal/mdp"
	"minicost/internal/par"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
)

// feedWeek ingests a week of observations for n files.
func feedWeek(t *testing.T, s *Server, n int) {
	t.Helper()
	files := make([]FileObservation, n)
	for i := range files {
		files[i] = obsv("f"+itoa(i), float64(i*13%997))
	}
	for d := 0; d < 7; d++ {
		if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
			t.Fatal(err)
		}
	}
}

// replicaBound is the most network copies one plan may borrow: one per
// shard-fanout worker, and never more than the shard count.
func replicaBound(s *Server) int64 {
	w := par.DefaultWorkers()
	if w > s.Shards() {
		w = s.Shards()
	}
	return int64(w)
}

// TestPlanReplicasBoundedByConcurrency is the agentserver half of the
// no-clone-per-request fix: repeated plan requests must not grow the pool.
// A plan borrows at most one replica per shard worker while deciding, an
// incremental plan with nothing dirty borrows none, and plans run one at a
// time (Server.planMu) — so replica count is pinned by the fan-out width,
// never by request volume or by how many clients ask at once.
func TestPlanReplicasBoundedByConcurrency(t *testing.T) {
	s, err := New(testAgent(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	feedWeek(t, s, 50)
	if _, err := s.BuildPlan(false); err != nil {
		t.Fatal(err)
	}
	base := s.Stats().Replicas
	if bound := replicaBound(s); base < 1 || base > bound {
		t.Fatalf("first plan built %d replicas, want 1..%d", base, bound)
	}
	// Nine more serial plans with no new observations: the pool stays
	// bounded by fan-out width, never by request volume.
	for i := 0; i < 9; i++ {
		if _, err := s.BuildPlan(false); err != nil {
			t.Fatal(err)
		}
	}
	if got, bound := s.Stats().Replicas, replicaBound(s); got > bound {
		t.Fatalf("10 serial plans built %d replicas, bound %d", got, bound)
	}
	const concurrent = 4
	var wg sync.WaitGroup
	for w := 0; w < concurrent; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := s.BuildPlan(true); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, bound := s.Stats().Replicas, replicaBound(s); got > bound {
		t.Fatalf("%d concurrent full planners built %d replicas, bound %d", concurrent, got, bound)
	}
}

// TestUpdateAgentRefreshesDecisions verifies a snapshot swap takes effect on
// the next plan — every file decided by the new weights, none by a replica
// or a weight pack left over from the old ones — and that incompatible
// windows are rejected.
func TestUpdateAgentRefreshesDecisions(t *testing.T) {
	cfg := rl.NetConfig{HistLen: 7, Filters: 8, Kernel: 4, Stride: 1, Hidden: 16}
	a1 := rl.NewAgent(cfg, cfg.BuildActor(rng.New(100)))
	s, err := New(a1, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	// Enough files that every shard decides on the packed-GEMM path.
	const files = 600
	feedWeek(t, s, files)
	p1, err := s.BuildPlan(false)
	if err != nil {
		t.Fatal(err)
	}

	// Different HistLen must be rejected: the observation windows are sized
	// for the original agent.
	bad := rl.NetConfig{HistLen: 14, Filters: 8, Kernel: 4, Stride: 1, Hidden: 16}
	if err := s.UpdateAgent(rl.NewAgent(bad, bad.BuildActor(rng.New(1)))); err == nil {
		t.Fatal("UpdateAgent accepted a mismatched history window")
	}
	if err := s.UpdateAgent(nil); err == nil {
		t.Fatal("UpdateAgent accepted nil")
	}

	// Swap in a differently-initialized agent. The swap must mark every
	// file dirty: cached decisions came from the old weights.
	a2 := rl.NewAgent(cfg, cfg.BuildActor(rng.New(101)))
	if err := s.UpdateAgent(a2); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DirtyFiles; got != files {
		t.Fatalf("post-swap dirty files = %d, want %d", got, files)
	}
	p2, err := s.BuildPlan(false)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Decided != files {
		t.Fatalf("post-swap incremental plan decided %d files, want all %d", p2.Decided, files)
	}
	// The oracle is the caller's own a2, one file at a time: feedWeek's
	// history, on the tier the first plan left the file on.
	differs := 0
	for i := range p2.Files {
		reads := make([]float64, cfg.HistLen)
		writes := make([]float64, cfg.HistLen)
		var n int
		for _, c := range p2.Files[i].ID[1:] {
			n = n*10 + int(c-'0')
		}
		for d := range reads {
			reads[d] = float64(n * 13 % 997)
			writes[d] = reads[d] * 0.01
		}
		prev, err := pricing.ParseTier(p1.Files[i].Tier)
		if err != nil {
			t.Fatal(err)
		}
		st := mdp.State{ReadHistory: reads, WriteHistory: writes, SizeGB: 0.1, Tier: prev}
		if want := a2.Decide(&st).String(); p2.Files[i].Tier != want {
			t.Fatalf("file %s: post-swap plan says %s, the new agent decides %s", p2.Files[i].ID, p2.Files[i].Tier, want)
		}
		if a1.Decide(&st).String() != p2.Files[i].Tier {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("old and new agent agree on every file: the comparison above pins nothing")
	}
	if got, bound := s.Stats().Replicas, replicaBound(s); got < 1 || got > bound {
		t.Fatalf("post-swap plan built %d replicas, want 1..%d (pool refreshed)", got, bound)
	}
}
