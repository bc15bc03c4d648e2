package rl

import (
	"fmt"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// TrainWithSelection trains the A3C in `chunks` segments and, after each,
// scores a policy snapshot on a validation slice of the training trace,
// returning the cheapest snapshot seen.
//
// Why: policy-gradient training oscillates — the policy at the final step
// is not reliably the best policy of the run, and a snapshot caught
// mid-swing can mis-tier high-traffic files, which is catastrophic
// under cloud prices (one archived hot file costs more than the rest of the
// fleet combined). Standard model selection on held-in data removes that
// run-to-run luck without touching the test set.
//
// The validation slice is up to valFiles random files over the trailing
// valDays days of tr, chosen deterministically from the A3C seed.
//
// totalSteps counts from wherever a already is: a trainer that has trained
// before trains totalSteps more, and its chunk targets sit past its own
// step count.
func TrainWithSelection(a *A3C, model *costmodel.Model, tr *trace.Trace, reward mdp.RewardConfig, totalSteps int64, chunks int, initial pricing.Tier) (*Agent, TrainStats, error) {
	const (
		valFiles = 100
		valDays  = 14
	)
	if chunks <= 0 {
		chunks = 5
	}
	if totalSteps < int64(chunks) {
		return nil, TrainStats{}, fmt.Errorf("rl: totalSteps %d below chunk count %d", totalSteps, chunks)
	}
	src, err := NewTraceSource(model, tr, a.cfg.Net.HistLen, reward, initial)
	if err != nil {
		return nil, TrainStats{}, err
	}

	// Validation slice: random file subset, trailing window.
	val := tr
	if tr.NumFiles() > valFiles {
		perm := rng.New(a.cfg.Seed ^ 0x7A11D).Perm(tr.NumFiles())
		val = tr.Subset(perm[:valFiles])
	}
	if val.Days > valDays {
		windowed, err := val.Window(val.Days-valDays, val.Days)
		if err != nil {
			return nil, TrainStats{}, err
		}
		val = windowed
	}

	var best *Agent
	bestCost := 0.0
	var total TrainStats
	base := a.Steps()
	for k := 1; k <= chunks; k++ {
		target := base + totalSteps*int64(k)/int64(chunks)
		if target <= a.Steps() {
			continue
		}
		stats, err := a.TrainFrom(src, target)
		if err != nil {
			return nil, TrainStats{}, err
		}
		total.Steps += stats.Steps
		total.Episodes += stats.Episodes
		total.Updates += stats.Updates
		total.RewardSum += stats.RewardSum
		total.CostSum += stats.CostSum

		snap := a.Snapshot()
		cost, err := planBill(snap, model, val, initial)
		if err != nil {
			return nil, TrainStats{}, err
		}
		if best == nil || cost < bestCost {
			best = snap
			bestCost = cost
		}
	}
	return best, total, nil
}

// planBill plans tr with the agent and returns the plan's total bill, every
// file starting in initial, summed in file order: policy.Score's number for
// one RL row, which rl cannot import. It plans through PlanTrace in
// DefaultBatchRows chunks on a pool of its own.
func planBill(agent *Agent, model *costmodel.Model, tr *trace.Trace, initial pricing.Tier) (float64, error) {
	asg, err := PlanTrace(NewReplicaPool(agent), tr, initial, DefaultBatchRows, 0)
	if err != nil {
		return 0, err
	}
	var total costmodel.Breakdown
	for i, plan := range asg {
		bd, err := model.PlanCost(initial, plan, tr.Files[i].SizeGB, tr.Reads[i], tr.Writes[i])
		if err != nil {
			return 0, err
		}
		total = total.Add(bd)
	}
	return total.Total(), nil
}
