// Package core assembles MiniCost, the paper's system (Fig. 5): an RL agent
// deployed on the web application's side that monitors per-file request
// frequencies, trains an A3C policy on historical data, and every day
// generates a data-storage-type assignment plan, billed through the cost
// model; the concurrent-request aggregation enhancement (§5.2) runs on its
// weekly cadence alongside.
package core

import (
	"errors"
	"fmt"
	"time"

	"minicost/internal/aggregate"
	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// Config configures a MiniCost system.
type Config struct {
	// Pricing is the CSP's price schedule; nil selects pricing.Azure().
	Pricing *pricing.Policy
	// A3C is the training configuration (§6.1 defaults via
	// rl.DefaultA3CConfig).
	A3C rl.A3CConfig
	// Reward is Eq. 4's parameterisation.
	Reward mdp.RewardConfig
	// TrainSteps is the number of environment steps for Train.
	TrainSteps int64
	// InitialTier is where files start (web applications default to hot).
	InitialTier pricing.Tier
	// Aggregation enables the §5.2 enhancement when non-nil; Algorithm 2
	// runs every Aggregation.WindowDays days, the week its Ω covers.
	Aggregation *aggregate.Config
	// Workers bounds serving-time parallelism.
	Workers int
}

// DefaultConfig returns the paper's configuration without the enhancement.
func DefaultConfig() Config {
	return Config{
		Pricing:     pricing.Azure(),
		A3C:         rl.DefaultA3CConfig(),
		Reward:      mdp.DefaultReward(),
		TrainSteps:  200000,
		InitialTier: pricing.Hot,
	}
}

// System is a MiniCost instance.
type System struct {
	cfg   Config
	model *costmodel.Model
	a3c   *rl.A3C
	agent *rl.Agent
}

// New validates the configuration and builds the (untrained) system.
func New(cfg Config) (*System, error) {
	if cfg.Pricing == nil {
		cfg.Pricing = pricing.Azure()
	}
	if err := cfg.Pricing.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.A3C.Validate(); err != nil {
		return nil, err
	}
	if !cfg.InitialTier.Valid() {
		return nil, fmt.Errorf("core: invalid initial tier")
	}
	if cfg.TrainSteps < 0 {
		return nil, fmt.Errorf("core: TrainSteps %d", cfg.TrainSteps)
	}
	if cfg.Aggregation != nil {
		if err := cfg.Aggregation.Validate(); err != nil {
			return nil, err
		}
	}
	a3c, err := rl.NewA3C(cfg.A3C)
	if err != nil {
		return nil, err
	}
	return &System{
		cfg:   cfg,
		model: costmodel.New(cfg.Pricing),
		a3c:   a3c,
	}, nil
}

// Model exposes the system's cost model.
func (s *System) Model() *costmodel.Model { return s.model }

// Train fits the agent on a historical trace (the paper trains on a random
// 80 % of the collected trace). It can be called repeatedly; training
// continues from the current parameters, TrainSteps more steps a call.
func (s *System) Train(hist *trace.Trace) (rl.TrainStats, error) {
	if err := hist.Validate(); err != nil {
		return rl.TrainStats{}, err
	}
	if s.cfg.TrainSteps == 0 {
		s.agent = s.a3c.Snapshot()
		return rl.TrainStats{}, nil
	}
	// Train in chunks with validation-based snapshot selection: the served
	// policy is the best snapshot of the run, not whatever the last
	// gradient step happened to leave (see rl.TrainWithSelection).
	agent, stats, err := rl.TrainWithSelection(s.a3c, s.model, hist, s.cfg.Reward, s.cfg.TrainSteps, 5, s.cfg.InitialTier)
	if err != nil {
		return rl.TrainStats{}, err
	}
	s.agent = agent
	return stats, nil
}

// SetAgent installs a pre-trained agent (used by experiments sharing one
// training run across many evaluations).
func (s *System) SetAgent(agent *rl.Agent) { s.agent = agent }

// Agent returns the serving agent (nil before Train/SetAgent).
func (s *System) Agent() *rl.Agent { return s.agent }

// RunReport is the outcome of serving a trace.
type RunReport struct {
	// Total is the bill for the whole run.
	Total costmodel.Breakdown
	// DecisionTime is the wall-clock time the assignment algorithm spent
	// deciding every file-day of the run (Fig. 12's computing overhead).
	DecisionTime time.Duration
	// TierChanges counts the plan's tier transitions.
	TierChanges int
	// AggregatedGroups is the number of groups with an active replica at
	// the end of the run.
	AggregatedGroups int
}

// ErrUntrained is returned by Run before the agent exists.
var ErrUntrained = errors.New("core: system has no trained agent; call Train first")

// Run serves a test trace. The trained agent decides every file's tier for
// every day from the trailing frequency history (Algorithm 1's serving loop)
// in one batched pass through the system's Assigner: a file's state depends
// only on the trace and the tiers already chosen for it, so the plan is
// decided on the raw trace and aggregation never changes it. The plan is
// billed through the cost model exactly as policy.Score bills a method, so
// without aggregation Total is that method's Score row bit for bit. With
// aggregation, aggregate.Bill prices it: Algorithm 2 runs on its weekly
// cadence, each replica's concurrent reads move off its members for the
// days it is live, and the replica is billed in its tier from its creation
// day until its eviction.
func (s *System) Run(tr *trace.Trace) (*RunReport, error) {
	assigner, err := s.Assigner()
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //minicost:allow-wallclock DecisionTime is a measurement, never a decision input
	plan, err := assigner.Assign(tr, s.model, s.cfg.InitialTier)
	if err != nil {
		return nil, err
	}
	report := &RunReport{DecisionTime: time.Since(start)} //minicost:allow-wallclock DecisionTime is a measurement
	initial := make([]pricing.Tier, tr.NumFiles())
	for i := range initial {
		initial[i] = s.cfg.InitialTier
		report.TierChanges += plan[i].Changes(s.cfg.InitialTier)
	}
	if s.cfg.Aggregation != nil {
		report.Total, report.AggregatedGroups, err = aggregate.Bill(s.model, tr, plan, initial, *s.cfg.Aggregation, s.cfg.Workers)
		if err != nil {
			return nil, err
		}
		return report, nil
	}
	bds, err := s.model.TraceCost(tr, plan, initial, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	report.Total = costmodel.SumBreakdowns(bds)
	return report, nil
}

// Assigner returns this system's trained agent wrapped as a policy.Assigner
// (for side-by-side comparison with the baselines).
func (s *System) Assigner() (policy.Assigner, error) {
	if s.agent == nil {
		return nil, ErrUntrained
	}
	return policy.RL{Agent: s.agent, HistLen: s.cfg.A3C.Net.HistLen, Workers: s.cfg.Workers}, nil
}
