package policy

import (
	"slices"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// TestOnlinePlansArePrefixStable: every online assigner is causal — its plan
// over Window(0, d) is bitwise the prefix of its full-horizon plan, so the
// day-d decision reads no day after d.
func TestOnlinePlansArePrefixStable(t *testing.T) {
	m := costmodel.New(pricing.Azure())
	net := rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
	agent := rl.NewAgent(net, net.BuildActor(rng.New(11)))
	assigners := []Assigner{
		Static{Tier: pricing.Hot},
		Static{Tier: pricing.Cool},
		Greedy{},
		Greedy{Oracle: true},
		RL{Agent: agent, HistLen: net.HistLen},
	}
	for seed := uint64(1); seed <= 10; seed++ {
		tr := randomTinyTrace(seed)
		for _, a := range assigners {
			full, err := a.Assign(tr, m, pricing.Hot)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, a.Name(), err)
			}
			for d := 1; d <= tr.Days; d++ {
				window, err := tr.Window(0, d)
				if err != nil {
					t.Fatal(err)
				}
				part, err := a.Assign(window, m, pricing.Hot)
				if err != nil {
					t.Fatalf("seed %d %s window %d: %v", seed, a.Name(), d, err)
				}
				for i := range part {
					for day := 0; day < d; day++ {
						if part[i][day] != full[i][day] {
							t.Fatalf("seed %d %s: file %d day %d: window-%d plan %v != full-plan prefix %v",
								seed, a.Name(), i, day, d, part[i][day], full[i][day])
						}
					}
				}
			}
		}
	}
}

// TestOnlineAssignersDoNotPeek pins the decision rule (package mdp) for every
// online assigner: day d is decided from days before d, so rewriting day
// d's reads and writes leaves the decisions of days 0 through d unchanged.
// Each day of each random tiny trace is flipped between idle and heavy
// traffic in turn. Greedy{Oracle: true} sees day d by definition and is not
// online.
func TestOnlineAssignersDoNotPeek(t *testing.T) {
	m := costmodel.New(pricing.Azure())
	net := rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
	agent := rl.NewAgent(net, net.BuildActor(rng.New(11)))
	assigners := []Assigner{
		Static{Tier: pricing.Hot},
		Static{Tier: pricing.Cool},
		Greedy{},
		RL{Agent: agent},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		tr := randomTinyTrace(seed)
		for _, a := range assigners {
			base, err := a.Assign(tr, m, pricing.Hot)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, a.Name(), err)
			}
			for d := 0; d < tr.Days; d++ {
				flipped, err := a.Assign(flipDay(tr, d), m, pricing.Hot)
				if err != nil {
					t.Fatalf("seed %d %s day %d flipped: %v", seed, a.Name(), d, err)
				}
				for i := range base {
					for day := 0; day <= d; day++ {
						if flipped[i][day] != base[i][day] {
							t.Fatalf("seed %d %s: rewriting day %d moved file %d's day-%d decision %v → %v",
								seed, a.Name(), d, i, day, base[i][day], flipped[i][day])
						}
					}
				}
			}
		}
	}
}

// flipDay returns a copy of tr whose day d is idle where it had traffic and
// heavy where it was idle (or nearly so), for every file.
func flipDay(tr *trace.Trace, d int) *trace.Trace {
	out := &trace.Trace{Days: tr.Days, Files: tr.Files}
	for i := range tr.Files {
		reads, writes := slices.Clone(tr.Reads[i]), slices.Clone(tr.Writes[i])
		if reads[d] < 50 {
			reads[d], writes[d] = 90000, 900
		} else {
			reads[d], writes[d] = 0, 0
		}
		out.Reads = append(out.Reads, reads)
		out.Writes = append(out.Writes, writes)
	}
	return out
}
