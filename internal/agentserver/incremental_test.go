package agentserver

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// planKey flattens a plan's assignment for bitwise comparison.
func planKey(p *PlanResponse) string {
	out := ""
	for _, f := range p.Files {
		out += f.ID + "=" + f.Tier
		if f.Changed {
			out += "*"
		}
		out += ";"
	}
	return out
}

// TestIncrementalPlanEqualsFull is the tentpole's equivalence guarantee:
// an incremental plan (re-deciding only dirty files, serving the rest from
// cache) is bitwise identical to a full re-decision of the whole
// population, across mixed observe/plan interleavings and shard counts.
// This holds because DecideBatch rows are batch-composition-independent
// (the PR-1 bitwise contract) and committed tiers feed back into the
// features only for files the plan actually changed — which the commit
// re-dirties. A third server keeps a learner's rings (2×histLen cells per
// file): its incremental plans and its feature rows must equal the others'
// bit for bit, since only the most recent histLen cells reach a row.
func TestIncrementalPlanEqualsFull(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Two servers, identical weights and identical observation
			// streams: inc plans incrementally, ful re-decides everything.
			inc, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			ful, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			long, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := long.AttachLearner(2 * long.histLen); err != nil {
				t.Fatal(err)
			}
			r := rng.New(uint64(9000 + shards))
			pop := 0
			observe := func(files []FileObservation) {
				t.Helper()
				for _, s := range []*Server{inc, ful, long} {
					if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
						t.Fatal(err)
					}
				}
			}
			comparePlans := func(step string) {
				t.Helper()
				pi, err := inc.BuildPlan(false)
				if err != nil {
					t.Fatal(err)
				}
				pf, err := ful.BuildPlan(true)
				if err != nil {
					t.Fatal(err)
				}
				if len(pi.Files) != len(pf.Files) {
					t.Fatalf("%s: incremental covers %d files, full %d", step, len(pi.Files), len(pf.Files))
				}
				if ki, kf := planKey(pi), planKey(pf); ki != kf {
					t.Fatalf("%s: incremental plan diverged from full\nincremental: %.200s\nfull:        %.200s", step, ki, kf)
				}
				if pi.Transition != pf.Transition {
					t.Fatalf("%s: transitions %d vs %d", step, pi.Transition, pf.Transition)
				}
				if !pi.Full && pi.Decided > len(pi.Files) {
					t.Fatalf("%s: incremental decided %d of %d files", step, pi.Decided, len(pi.Files))
				}
				pl, err := long.BuildPlan(false)
				if err != nil {
					t.Fatal(err)
				}
				// Every plan these interleavings produce goes on the wire byte
				// for byte as encoding/json would write it.
				for _, p := range []*PlanResponse{pi, pf, pl} {
					checkPlanEncoding(t, p)
				}
				if kl, ki := planKey(pl), planKey(pi); kl != ki || pl.Decided != pi.Decided {
					t.Fatalf("%s: plan over 2×histLen rings diverged (decided %d vs %d)\nlong:  %.200s\nshort: %.200s",
						step, pl.Decided, pi.Decided, kl, ki)
				}
				// Same stream, same shard count: slots line up, so the
				// feature rows compare position by position.
				fd := mdp.FeatureDim(inc.histLen)
				rowI, rowL := make([]float64, fd), make([]float64, fd)
				for si, sh := range inc.shards {
					for slot := range sh.ids {
						sh.featureInto(int32(slot), rowI)
						long.shards[si].featureInto(int32(slot), rowL)
						for k := range rowI {
							if math.Float64bits(rowI[k]) != math.Float64bits(rowL[k]) {
								t.Fatalf("%s: feature row of %q differs at %d: %v vs %v", step, sh.ids[slot], k, rowI[k], rowL[k])
							}
						}
					}
				}
			}
			newBatch := func(lo, hi int) []FileObservation {
				files := make([]FileObservation, 0, hi-lo)
				for i := lo; i < hi; i++ {
					files = append(files, FileObservation{
						ID:     "f" + itoa(i),
						SizeGB: 0.05 + r.Float64(),
						Reads:  r.Float64() * 2000,
						Writes: r.Float64() * 20,
					})
				}
				return files
			}

			// Mixed interleaving: grow the population, observe subsets,
			// duplicate IDs, plan at every step.
			pop = 120
			for d := 0; d < 3; d++ {
				observe(newBatch(0, pop))
			}
			comparePlans("after warmup")
			comparePlans("repeat with nothing dirty")

			// Touch a subset: only those become dirty on inc.
			observe(newBatch(10, 40))
			comparePlans("after partial observe")

			// New files join mid-stream.
			observe(newBatch(0, pop+37))
			pop += 37
			comparePlans("after growth")

			// Duplicates inside one batch (last wins on both servers).
			batch := newBatch(50, 60)
			batch = append(batch, newBatch(50, 55)...)
			observe(batch)
			comparePlans("after duplicate batch")

			// Several observe days between plans — enough that the long rings
			// wrap too.
			for d := 0; d < 12; d++ {
				observe(newBatch(pop/2, pop))
			}
			comparePlans("after multi-day gap")
		})
	}
}

// TestConcurrentObserveAndPlanSharded hammers a multi-shard server with
// interleaved direct Observe/BuildPlan calls; run under -race by `make
// check`. Plans taken during the run only need to be well-formed; a final
// quiescent plan must equal a full re-decision.
func TestConcurrentObserveAndPlanSharded(t *testing.T) {
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	feedWeek(t, s, 300)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w + 1))
			for i := 0; i < 15; i++ {
				if w%2 == 0 {
					files := make([]FileObservation, 40)
					for j := range files {
						files[j] = obsv("f"+itoa(int(r.Float64()*300)), r.Float64()*100)
					}
					if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
						t.Error(err)
						return
					}
				} else {
					p, err := s.BuildPlan(i%4 == 0)
					if err != nil {
						t.Error(err)
						return
					}
					if len(p.Files) != 300 {
						t.Errorf("mid-run plan covers %d files, want 300", len(p.Files))
						return
					}
					for k := 1; k < len(p.Files); k++ {
						if p.Files[k-1].ID >= p.Files[k].ID {
							t.Errorf("plan not ID-sorted at %d: %q >= %q", k, p.Files[k-1].ID, p.Files[k].ID)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Quiescent: the store survived the hammering intact — every file
	// still tracked exactly once, a full plan re-decides all of them.
	if got := s.Stats().TrackedFiles; got != 300 {
		t.Fatalf("tracked %d files after run, want 300", got)
	}
	pf, err := s.BuildPlan(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Files) != 300 || pf.Decided != 300 {
		t.Fatalf("final full plan files=%d decided=%d, want 300/300", len(pf.Files), pf.Decided)
	}
	for _, f := range pf.Files {
		if _, err := pricing.ParseTier(f.Tier); err != nil {
			t.Fatalf("invalid tier %q in final plan", f.Tier)
		}
	}
}
