package costmodel

import (
	"testing"

	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// The per-component form of Eqs. 6–9, written straight from the
// pricing.Policy fields. It is the oracle FileCoeffs and the plan kernel are
// held to bitwise: each term performs the same operations, in the same
// order, as the coefficient it checks.

// storageDay is one day of storage for sizeGB in tier (Eq. 6 prorated).
func storageDay(p *pricing.Policy, tier pricing.Tier, sizeGB float64) float64 {
	return p.Tiers[tier].StoragePerGBMonth / pricing.DaysPerMonth * sizeGB
}

// readCost is the cost of reads read operations against a file of sizeGB
// in tier (Eq. 7).
func readCost(p *pricing.Policy, tier pricing.Tier, sizeGB, reads float64) float64 {
	tp := p.Tiers[tier]
	return reads * (tp.ReadPer10K/10000 + tp.RetrievalPerGB*sizeGB)
}

// writeCost is the cost of writes write operations (Eq. 8).
func writeCost(p *pricing.Policy, tier pricing.Tier, sizeGB, writes float64) float64 {
	tp := p.Tiers[tier]
	return writes * (tp.WritePer10K/10000 + tp.IngressPerGB*sizeGB)
}

// transitionCost is the one-time fee for moving a file of sizeGB between
// tiers (Eq. 9); zero when from == to.
func transitionCost(p *pricing.Policy, from, to pricing.Tier, sizeGB float64) float64 {
	if from == to {
		return 0
	}
	return p.TransitionPerGB * sizeGB
}

// oracleDay is one file-day in tier, having been in prev the day before.
func oracleDay(p *pricing.Policy, prev, tier pricing.Tier, sizeGB, reads, writes float64) Breakdown {
	return Breakdown{
		Storage:    storageDay(p, tier, sizeGB),
		Read:       readCost(p, tier, sizeGB, reads),
		Write:      writeCost(p, tier, sizeGB, writes),
		Transition: transitionCost(p, prev, tier, sizeGB),
	}
}

// randomPlanSeries builds a random plan with matching frequency series,
// covering idle days, heavy traffic and frequent tier changes.
func randomPlanSeries(seed uint64, days int) (Plan, []float64, []float64) {
	r := rng.New(seed)
	plan := make(Plan, days)
	reads := make([]float64, days)
	writes := make([]float64, days)
	for d := 0; d < days; d++ {
		plan[d] = pricing.Tier(r.Intn(pricing.NumTiers))
		switch r.Intn(3) {
		case 0: // idle
		case 1:
			reads[d] = r.Float64() * 100
		default:
			reads[d] = r.Float64() * 100000
		}
		writes[d] = reads[d] * r.Float64() * 0.1
	}
	return plan, reads, writes
}

// TestFileCoeffsMatchComponentPrices: the flat affine coefficients reproduce
// the per-component oracle bitwise — the foundation of every pricing
// kernel's exact equivalence.
func TestFileCoeffsMatchComponentPrices(t *testing.T) {
	m := model()
	p := m.Policy
	for _, size := range []float64{0.001, 0.1, 1, 37.5} {
		c := m.FileCoeffs(size)
		for tier := pricing.Tier(0); tier < pricing.NumTiers; tier++ {
			for _, freq := range []struct{ r, w float64 }{{0, 0}, {1, 1}, {5000, 100}, {123456, 7.5}} {
				want := storageDay(p, tier, size) + readCost(p, tier, size, freq.r) + writeCost(p, tier, size, freq.w)
				if got := c.ServeCost(tier, freq.r, freq.w); got != want {
					t.Fatalf("size %v tier %v: ServeCost %v != component sum %v", size, tier, got, want)
				}
				for from := pricing.Tier(0); from < pricing.NumTiers; from++ {
					want := oracleDay(p, from, tier, size, freq.r, freq.w).Total()
					if got := c.DayTotal(from, tier, freq.r, freq.w); got != want {
						t.Fatalf("size %v %v->%v: DayTotal %v != oracle day %v", size, from, tier, got, want)
					}
				}
			}
			for from := pricing.Tier(0); from < pricing.NumTiers; from++ {
				if got, want := c.Transition(from, tier), transitionCost(p, from, tier, size); got != want {
					t.Fatalf("Transition(%v,%v) %v != %v", from, tier, got, want)
				}
			}
		}
	}
}

// TestPlanCostMatchesComponentLoop: the fused flat-coefficient kernel is
// bitwise identical to accumulating the per-component oracle day by day.
func TestPlanCostMatchesComponentLoop(t *testing.T) {
	m := model()
	for seed := uint64(1); seed <= 25; seed++ {
		days := 1 + int(seed)%40
		plan, reads, writes := randomPlanSeries(seed, days)
		size := 0.001 + rng.New(seed^0xabc).Float64()*50
		initial := pricing.Tier(seed % pricing.NumTiers)
		got, err := m.PlanCost(initial, plan, size, reads, writes)
		if err != nil {
			t.Fatal(err)
		}
		var want Breakdown
		prev := initial
		for d := range plan {
			want.Storage += storageDay(m.Policy, plan[d], size)
			want.Read += readCost(m.Policy, plan[d], size, reads[d])
			want.Write += writeCost(m.Policy, plan[d], size, writes[d])
			want.Transition += transitionCost(m.Policy, prev, plan[d], size)
			prev = plan[d]
		}
		if got != want {
			t.Fatalf("seed %d: fused %+v != component loop %+v", seed, got, want)
		}
	}
}

// TestNewAssignmentArena: plans share one backing array but stay isolated —
// full-capacity slicing keeps an append from bleeding into a neighbour.
func TestNewAssignmentArena(t *testing.T) {
	asg := NewAssignment(3, 4)
	if len(asg) != 3 {
		t.Fatalf("files %d", len(asg))
	}
	for i := range asg {
		if len(asg[i]) != 4 || cap(asg[i]) != 4 {
			t.Fatalf("plan %d: len %d cap %d", i, len(asg[i]), cap(asg[i]))
		}
	}
	asg[1][0] = pricing.Cool
	grown := append(asg[0], pricing.Archive)
	if asg[1][0] != pricing.Cool {
		t.Fatal("append to plan 0 bled into plan 1")
	}
	if grown[4] != pricing.Archive {
		t.Fatal("append lost")
	}
	if empty := NewAssignment(0, 5); len(empty) != 0 {
		t.Fatal("empty assignment")
	}
	uni := UniformAssignment(pricing.Cool, 2, 3)
	for i := range uni {
		for d := range uni[i] {
			if uni[i][d] != pricing.Cool {
				t.Fatalf("uniform assignment file %d day %d = %v", i, d, uni[i][d])
			}
		}
	}
}
