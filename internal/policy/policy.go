// Package policy implements the data-storage-type assignment strategies the
// paper evaluates (§6.1): the Hot and Cold single-tier baselines, the
// per-day Greedy algorithm, the offline Optimal ("brutal-force") solution —
// computed exactly by a per-file dynamic program, held to a literal
// brute-force enumerator in this package's tests — plus the adapter that
// turns a trained RL agent into an assigner.
package policy

import (
	"fmt"

	"minicost/internal/costmodel"
	"minicost/internal/par"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// Assigner produces a full per-file, per-day tier assignment for a trace.
// Online assigners follow the decision rule of package mdp: day d is
// decided from days before d only, and day 0 is served in the initial tier
// (the paper's literal Greedy, Greedy{Oracle: true}, additionally sees day
// d's own frequencies, matching its "offline greedy for each day"
// definition); offline assigners see the whole horizon.
type Assigner interface {
	Name() string
	Assign(tr *trace.Trace, m *costmodel.Model, initial pricing.Tier) (costmodel.Assignment, error)
}

// Baselines returns the paper's comparison methods in its plot order (§6.1):
// Hot, Cold, Greedy and Optimal, the last two across workers files at a
// time.
func Baselines(workers int) []Assigner {
	return []Assigner{
		Static{Tier: pricing.Hot},
		Static{Tier: pricing.Cool},
		Greedy{Workers: workers},
		Optimal{Workers: workers},
	}
}

// Row is one method's line on a Scoreboard.
type Row struct {
	Name string
	Plan costmodel.Assignment
	// Files holds each file's TraceCost bill in file order; Total is their
	// SumBreakdowns.
	Files []costmodel.Breakdown
	Total costmodel.Breakdown
	// Ratio is Total's bill over the board's "optimal" row (exactly 1 for
	// an equal bill); 0 when the board has no such row.
	Ratio float64
}

// Scoreboard is the paper's yardstick: each scored method's plan and bill
// on one trace, in the order the methods were given.
type Scoreboard []Row

// Find returns the row named name.
func (b Scoreboard) Find(name string) (Row, bool) {
	for _, r := range b {
		if r.Name == name {
			return r, true
		}
	}
	return Row{}, false
}

// Score assigns tr with each method, every file starting in initial, and
// prices each plan with m.TraceCost across workers files at a time. It is
// the one place a method's bill is compared with another's: every figure,
// the online gate, the CLI and the facade read it. Score runs only the
// methods it is given, so a ratio to Optimal costs a DP only when the
// caller asks for one. An invalid initial tier is refused before any
// method runs, and a plan holding an invalid tier is refused naming its
// method.
func Score(m *costmodel.Model, tr *trace.Trace, initial pricing.Tier, workers int, methods ...Assigner) (Scoreboard, error) {
	if !initial.Valid() {
		return nil, fmt.Errorf("policy: invalid initial tier %d", int(initial))
	}
	init := make([]pricing.Tier, tr.NumFiles())
	for i := range init {
		init[i] = initial
	}
	board := make(Scoreboard, len(methods))
	optimal := -1
	for k, a := range methods {
		asg, err := a.Assign(tr, m, initial)
		if err == nil {
			err = checkTiers(asg)
		}
		var bds []costmodel.Breakdown
		if err == nil {
			bds, err = m.TraceCost(tr, asg, init, workers)
		}
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", a.Name(), err)
		}
		board[k] = Row{Name: a.Name(), Plan: asg, Files: bds, Total: costmodel.SumBreakdowns(bds)}
		if board[k].Name == "optimal" {
			optimal = k
		}
	}
	if optimal >= 0 {
		opt := board[optimal].Total.Total()
		for k := range board {
			if t := board[k].Total.Total(); t == opt { //minicost:allow-floatcmp an equal bill is exactly ratio 1, also when both are 0
				board[k].Ratio = 1
			} else {
				board[k].Ratio = t / opt
			}
		}
	}
	return board, nil
}

// checkTiers refuses an assignment holding a tier outside the price
// schedule, which the cost kernels would index out of range.
func checkTiers(asg costmodel.Assignment) error {
	for i, plan := range asg {
		for d, t := range plan {
			if !t.Valid() {
				return fmt.Errorf("file %d day %d: invalid tier %d", i, d, int(t))
			}
		}
	}
	return nil
}

// Static keeps every file in one tier for the whole horizon (the paper's
// Hot and Cold baselines).
type Static struct{ Tier pricing.Tier }

// Name implements Assigner: the tier's name, except that Cool is the
// paper's "cold".
func (s Static) Name() string {
	if s.Tier == pricing.Cool {
		return "cold"
	}
	return s.Tier.String()
}

// Assign implements Assigner.
func (s Static) Assign(tr *trace.Trace, m *costmodel.Model, initial pricing.Tier) (costmodel.Assignment, error) {
	if !s.Tier.Valid() {
		return nil, fmt.Errorf("policy: invalid static tier %d", int(s.Tier))
	}
	return costmodel.UniformAssignment(s.Tier, tr.NumFiles(), tr.Days), nil
}

// Greedy is the paper's comparison algorithm: each day it assigns each file
// to the tier minimizing that single day's cost, including the cost of
// changing the storage type, with no look-ahead ("simply select the storage
// type with the minimum money cost only for the next day", §3.2).
//
// By default it is an online policy, like MiniCost itself: the day-d
// decision is priced with day d−1's observed frequencies, and day 0 is
// served in the initial tier (the decision rule of package mdp). Oracle
// switches to the paper's literal offline per-day variant, which sees day
// d's own frequencies before deciding — still myopic, but clairvoyant within
// the day.
type Greedy struct {
	// Oracle grants same-day knowledge (the paper's "offline greedy for
	// each day").
	Oracle bool
	// Workers bounds parallelism across files; <= 0 means GOMAXPROCS.
	Workers int
}

// Name implements Assigner.
func (g Greedy) Name() string {
	if g.Oracle {
		return "greedy-oracle"
	}
	return "greedy"
}

// Assign implements Assigner.
func (g Greedy) Assign(tr *trace.Trace, m *costmodel.Model, initial pricing.Tier) (costmodel.Assignment, error) {
	asg := costmodel.NewAssignment(tr.NumFiles(), tr.Days)
	par.For(tr.NumFiles(), g.Workers, func(i int) {
		c := m.FileCoeffs(tr.Files[i].SizeGB)
		greedyPlan(asg[i], &c, tr.Reads[i], tr.Writes[i], initial, g.Oracle)
	})
	return asg, nil
}

// greedyPlan fills dst with the myopic per-day decisions, a flat loop over
// the file's affine day-cost coefficients (candidate costs are grouped like
// Breakdown.Total(), so decisions match costmodel's component oracle exactly).
//
//minicost:hotpath
func greedyPlan(dst costmodel.Plan, c *costmodel.FileCoeffs, reads, writes []float64, initial pricing.Tier, oracle bool) {
	cur := initial
	for d := range reads {
		// The frequencies the decision is based on: today's own (oracle) or
		// yesterday's observation (online, under the decision rule of
		// package mdp: day 0 is served in the initial tier).
		obs := d
		if !oracle {
			if d == 0 {
				dst[0] = cur
				continue
			}
			obs = d - 1
		}
		cur = GreedyStep(c, cur, reads[obs], writes[obs])
		dst[d] = cur
	}
}

// GreedyStep is Greedy's one-day decision for a file held in cur: the tier
// whose day cost at reads and writes, the fee for leaving cur included, is
// lowest; a tie keeps cur, then the lowest tier index. Greedy.Assign walks
// it day by day, and the agent server's Greedy policy takes it once per
// plan.
//
//minicost:hotpath
func GreedyStep(c *costmodel.FileCoeffs, cur pricing.Tier, reads, writes float64) pricing.Tier {
	best := cur
	bestCost := c.DayTotal(cur, cur, reads, writes)
	for t := pricing.Tier(0); t < pricing.NumTiers; t++ {
		if t == cur {
			continue
		}
		if cost := c.DayTotal(cur, t, reads, writes); cost < bestCost {
			best, bestCost = t, cost
		}
	}
	return best
}

// Optimal computes the exact offline minimum-cost assignment. Per-file costs
// are separable (Eqs. 6–9 sum over files), so the paper's exhaustive search
// over all assignment plans decomposes per file, where a dynamic program
// over (day × tier) finds the same optimum in O(D·Γ²) instead of O(Γ^D) —
// this package's tests hold it to exhaustive search on small horizons.
type Optimal struct {
	Workers int
}

// Name implements Assigner.
func (Optimal) Name() string { return "optimal" }

// Assign implements Assigner.
func (o Optimal) Assign(tr *trace.Trace, m *costmodel.Model, initial pricing.Tier) (costmodel.Assignment, error) {
	asg := costmodel.NewAssignment(tr.NumFiles(), tr.Days)
	par.For(tr.NumFiles(), o.Workers, func(i int) {
		c := m.FileCoeffs(tr.Files[i].SizeGB)
		optimalPlan(asg[i], &c, tr.Reads[i], tr.Writes[i], initial)
	})
	return asg, nil
}

// OptimalPlan returns one file's exact minimum-cost plan and its cost.
func OptimalPlan(m *costmodel.Model, sizeGB float64, reads, writes []float64, initial pricing.Tier) (costmodel.Plan, float64) {
	plan := make(costmodel.Plan, len(reads))
	c := m.FileCoeffs(sizeGB)
	return plan, optimalPlan(plan, &c, reads, writes, initial)
}

// optimalPlan fills dst with the file's minimum-cost plan over len(dst) days
// and returns its cost: a forward dynamic program over (day × tier) on the
// file's affine day-cost coefficients. cost[t] is the minimum cost of the
// days so far ending in tier t — two rows, rolled day by day — and from[d][t]
// the predecessor tier the backtrack follows. Ties break toward the lowest
// tier index.
func optimalPlan(dst costmodel.Plan, c *costmodel.FileCoeffs, reads, writes []float64, initial pricing.Tier) float64 {
	days := len(dst)
	if days == 0 {
		return 0
	}
	const nt = pricing.NumTiers
	from := make([][nt]int8, days)
	var cost, next [nt]float64
	for t := 0; t < nt; t++ {
		tier := pricing.Tier(t)
		cost[t] = c.Transition(initial, tier) + c.DayTotal(tier, tier, reads[0], writes[0])
	}
	for d := 1; d < days; d++ {
		r, w := reads[d], writes[d]
		for t := 0; t < nt; t++ {
			tier := pricing.Tier(t)
			serve := c.DayTotal(tier, tier, r, w)
			best := -1
			bestCost := 0.0
			for p := 0; p < nt; p++ {
				cand := cost[p] + c.Transition(pricing.Tier(p), tier)
				if best < 0 || cand < bestCost {
					best, bestCost = p, cand
				}
			}
			next[t] = bestCost + serve
			from[d][t] = int8(best)
		}
		cost = next
	}
	last := 0
	for t := 1; t < nt; t++ {
		if cost[t] < cost[last] {
			last = t
		}
	}
	total := cost[last]
	for d := days - 1; d > 0; d-- {
		dst[d] = pricing.Tier(last)
		last = int(from[d][last])
	}
	dst[0] = pricing.Tier(last)
	return total
}

// MatchRate returns the fraction of (file, day) decisions on which two
// assignments agree — the paper's "optimal action rate" when b is the
// Optimal assignment (§6.3).
func MatchRate(a, b costmodel.Assignment) float64 {
	total, match := 0, 0
	for i := range a {
		if i >= len(b) {
			break
		}
		for d := range a[i] {
			if d >= len(b[i]) {
				break
			}
			total++
			if a[i][d] == b[i][d] {
				match++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(match) / float64(total)
}
