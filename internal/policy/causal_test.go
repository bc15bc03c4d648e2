package policy

import (
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
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
