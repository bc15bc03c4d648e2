// Package costmodel implements the MiniCost payment model, Eqs. 5–9 of the
// paper: the total cost C = Cs + Cc + Cr + Cw, where
//
//	Cs = Σ X_{d,p} · u_p · D_d              storage        (Eq. 6)
//	Cr = Σ F_r · (u_rf + u_rs · D_d)        read requests  (Eq. 7)
//	Cw = Σ F_w · (u_wf + u_ws · D_d)        write requests (Eq. 8)
//	Cc = Σ Θ_d · u_tran · D_d               tier changes   (Eq. 9)
//
// Prices come from a pricing.Policy; storage is prorated per day (u_p is a
// $/GB-month list price). All frequencies are daily counts; the per-day
// granularity matches the paper's daily billing ("the payment made to CSP is
// calculated by days", §6.1).
//
// There is one pricing path: a file's FileCoeffs, derived once per file
// from the Policy, price every file-day in the system. The per-component
// form of Eqs. 6–9 above lives only in this package's tests, as the oracle
// FileCoeffs and the plan kernel are held to bitwise.
package costmodel

import (
	"errors"
	"fmt"

	"minicost/internal/par"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// Breakdown is one cost observation split into the paper's four components.
type Breakdown struct {
	Storage    float64 // Cs
	Read       float64 // Cr
	Write      float64 // Cw
	Transition float64 // Cc
}

// Total returns Cs + Cc + Cr + Cw (Eq. 5).
func (b Breakdown) Total() float64 { return b.Storage + b.Read + b.Write + b.Transition }

// Add returns the componentwise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Storage:    b.Storage + o.Storage,
		Read:       b.Read + o.Read,
		Write:      b.Write + o.Write,
		Transition: b.Transition + o.Transition,
	}
}

// String renders the breakdown for reports.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=$%.4f (storage=$%.4f read=$%.4f write=$%.4f transition=$%.4f)",
		b.Total(), b.Storage, b.Read, b.Write, b.Transition)
}

// Model evaluates costs under one price policy.
type Model struct {
	Policy *pricing.Policy
	// ChargeRetention additionally bills Azure-style early-deletion when a
	// file leaves a tier before the tier's MinRetentionDays (an extension
	// beyond Eq. 9; off in all paper reproductions).
	ChargeRetention bool
}

// New returns a model over the given policy.
func New(p *pricing.Policy) *Model { return &Model{Policy: p} }

// FileCoeffs are one file's affine per-day cost coefficients: with the file
// size fixed, the cost of serving one day in tier t is
//
//	Stor[t] + reads·Read[t] + writes·Write[t]
//
// plus Trans when the day starts with a tier change. They are the only way
// the system prices a file-day: the MDP reward, the baselines and the plan
// kernel behind every bill (core.System.Run's included) go through them. Deriving
// them once per file turns every per-day pricing into three multiply-adds.
type FileCoeffs struct {
	Stor  [pricing.NumTiers]float64 // storage $/day (Eq. 6 prorated)
	Read  [pricing.NumTiers]float64 // $/read op incl. retrieval (Eq. 7)
	Write [pricing.NumTiers]float64 // $/write op incl. ingress (Eq. 8)
	Trans float64                   // tier-change fee (Eq. 9)
}

// FileCoeffs derives the affine day-cost coefficients of a file of sizeGB
// from the model's price policy.
func (m *Model) FileCoeffs(sizeGB float64) FileCoeffs {
	p := m.Policy
	var c FileCoeffs
	for t := range c.Stor {
		tier := pricing.Tier(t)
		c.Stor[t] = p.StoragePerGBDay(tier) * sizeGB
		c.Read[t] = p.ReadOpPrice(tier) + p.Tiers[t].RetrievalPerGB*sizeGB
		c.Write[t] = p.WriteOpPrice(tier) + p.Tiers[t].IngressPerGB*sizeGB
	}
	c.Trans = p.TransitionPerGB * sizeGB
	return c
}

// ServeCost is one day's serving cost (storage + operations, no transition)
// in tier t.
func (c *FileCoeffs) ServeCost(t pricing.Tier, reads, writes float64) float64 {
	return c.Stor[t] + reads*c.Read[t] + writes*c.Write[t]
}

// Transition is the tier-change fee; zero when from == to.
func (c *FileCoeffs) Transition(from, to pricing.Tier) float64 {
	if from == to {
		return 0
	}
	return c.Trans
}

// DayTotal is one full day's cost including a possible tier change, grouped
// exactly like Breakdown.Total(): ((storage+read)+write)+transition.
func (c *FileCoeffs) DayTotal(prev, t pricing.Tier, reads, writes float64) float64 {
	return c.ServeCost(t, reads, writes) + c.Transition(prev, t)
}

// Plan is a per-day tier assignment for one file.
type Plan []pricing.Tier

// Uniform returns a plan keeping one tier for the given number of days.
func Uniform(tier pricing.Tier, days int) Plan {
	p := make(Plan, days)
	for i := range p {
		p[i] = tier
	}
	return p
}

// Changes counts the tier transitions inside the plan starting from initial.
func (p Plan) Changes(initial pricing.Tier) int {
	n := 0
	prev := initial
	for _, t := range p {
		if t != prev {
			n++
		}
		prev = t
	}
	return n
}

// ErrPlanLength reports a plan whose length disagrees with the series.
var ErrPlanLength = errors.New("costmodel: plan length != number of days")

// PlanCost evaluates a per-file plan against its daily read/write series.
// initial is the tier the file occupied before day 0; a change on day 0 is
// billed like any other. Retention billing (if enabled) charges the
// remaining-days balance of the source tier's minimum retention whenever a
// file leaves a tier early, matching Azure's early-deletion rule.
func (m *Model) PlanCost(initial pricing.Tier, plan Plan, sizeGB float64, reads, writes []float64) (Breakdown, error) {
	if len(plan) != len(reads) || len(plan) != len(writes) {
		return Breakdown{}, ErrPlanLength
	}
	c := m.FileCoeffs(sizeGB)
	return m.planCost(&c, initial, plan, reads, writes), nil
}

// planCost is the fused pricing kernel behind PlanCost: one flat loop over
// the plan accumulating the four components as scalars, with per-day costs
// read off the file's affine coefficients. Lengths are the caller's
// responsibility.
func (m *Model) planCost(c *FileCoeffs, initial pricing.Tier, plan Plan, reads, writes []float64) Breakdown {
	var storage, read, write, transition float64
	prev := initial
	daysInTier := 0
	for d, tier := range plan {
		storage += c.Stor[tier]
		read += reads[d] * c.Read[tier]
		write += writes[d] * c.Write[tier]
		if tier != prev {
			tc := c.Trans
			if m.ChargeRetention {
				if min := m.Policy.Tiers[prev].MinRetentionDays; daysInTier < min {
					// Bill the unserved remainder as storage-days of the source tier.
					tc += float64(min-daysInTier) * c.Stor[prev]
				}
			}
			transition += tc
			daysInTier = 1
		} else {
			daysInTier++
		}
		prev = tier
	}
	return Breakdown{Storage: storage, Read: read, Write: write, Transition: transition}
}

// Assignment is a full data-storage-type assignment plan: one Plan per file
// (the paper's action a = (a_0 … a_N)).
type Assignment []Plan

// NewAssignment allocates a files×days assignment whose plans share one
// contiguous tier arena: one allocation instead of one per file, and the
// per-file plans stay cache-adjacent. Plans are full slices (capacity capped
// at days) so appending to one cannot bleed into its neighbour.
func NewAssignment(files, days int) Assignment {
	backing := make([]pricing.Tier, files*days)
	out := make(Assignment, files)
	for i := range out {
		out[i] = Plan(backing[i*days : (i+1)*days : (i+1)*days])
	}
	return out
}

// UniformAssignment assigns every file the same constant tier.
func UniformAssignment(tier pricing.Tier, files, days int) Assignment {
	out := NewAssignment(files, days)
	if len(out) == 0 {
		return out
	}
	first := out[0]
	for d := range first {
		first[d] = tier
	}
	for _, p := range out[1:] {
		copy(p, first)
	}
	return out
}

// TraceCost evaluates an assignment against a trace, in parallel across
// files. initial gives each file's day-(-1) tier; a nil initial means every
// file starts in Hot. The returned slice holds each file's breakdown; sum
// them with SumBreakdowns for the total bill.
func (m *Model) TraceCost(tr *trace.Trace, asg Assignment, initial []pricing.Tier, workers int) ([]Breakdown, error) {
	n := tr.NumFiles()
	if len(asg) != n {
		return nil, fmt.Errorf("costmodel: assignment covers %d files, trace has %d", len(asg), n)
	}
	if initial != nil && len(initial) != n {
		return nil, fmt.Errorf("costmodel: initial tiers cover %d files, trace has %d", len(initial), n)
	}
	for i := range asg {
		if len(asg[i]) != tr.Days {
			return nil, fmt.Errorf("costmodel: file %d: %w", i, ErrPlanLength)
		}
	}
	out := make([]Breakdown, n)
	par.For(n, workers, func(i int) {
		init := pricing.Hot
		if initial != nil {
			init = initial[i]
		}
		// Lengths were validated above, so PlanCost cannot fail here.
		bd, _ := m.PlanCost(init, asg[i], tr.Files[i].SizeGB, tr.Reads[i], tr.Writes[i])
		out[i] = bd
	})
	return out, nil
}

// SumBreakdowns folds per-file breakdowns into a single bill.
func SumBreakdowns(bds []Breakdown) Breakdown {
	var total Breakdown
	for _, b := range bds {
		total = total.Add(b)
	}
	return total
}
