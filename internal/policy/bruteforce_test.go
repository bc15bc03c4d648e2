package policy

import (
	"fmt"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// BruteForce enumerates every Γ^D plan per file — the paper's literal
// "offline-brutal-force" method. Exponential; only usable for tiny horizons
// (it refuses beyond MaxDays) and kept as the oracle the DP is tested
// against.
type BruteForce struct{}

// MaxDays bounds BruteForce's horizon (3^10 ≈ 59k plans per file).
const MaxDays = 10

// Name implements Assigner.
func (BruteForce) Name() string { return "brute-force" }

// Assign implements Assigner.
func (b BruteForce) Assign(tr *trace.Trace, m *costmodel.Model, initial pricing.Tier) (costmodel.Assignment, error) {
	if tr.Days > MaxDays {
		return nil, fmt.Errorf("policy: brute force limited to %d days, got %d", MaxDays, tr.Days)
	}
	asg := make(costmodel.Assignment, tr.NumFiles())
	for i := 0; i < tr.NumFiles(); i++ {
		plan, _, err := BruteForcePlan(m, tr.Files[i].SizeGB, tr.Reads[i], tr.Writes[i], initial)
		if err != nil {
			return nil, err
		}
		asg[i] = plan
	}
	return asg, nil
}

// BruteForcePlan exhaustively searches one file's plan space.
func BruteForcePlan(m *costmodel.Model, sizeGB float64, reads, writes []float64, initial pricing.Tier) (costmodel.Plan, float64, error) {
	days := len(reads)
	if days > MaxDays {
		return nil, 0, fmt.Errorf("policy: brute force limited to %d days, got %d", MaxDays, days)
	}
	total := 1
	for d := 0; d < days; d++ {
		total *= pricing.NumTiers
	}
	var bestPlan costmodel.Plan
	bestCost := 0.0
	plan := make(costmodel.Plan, days)
	for code := 0; code < total; code++ {
		c := code
		for d := 0; d < days; d++ {
			plan[d] = pricing.Tier(c % pricing.NumTiers)
			c /= pricing.NumTiers
		}
		bd, err := m.PlanCost(initial, plan, sizeGB, reads, writes)
		if err != nil {
			return nil, 0, err
		}
		if bestPlan == nil || bd.Total() < bestCost {
			bestPlan = append(costmodel.Plan(nil), plan...)
			bestCost = bd.Total()
		}
	}
	return bestPlan, bestCost, nil
}
