// Package minicost is the public API of the MiniCost library — a
// reproduction of "A Reinforcement Learning Based System for Minimizing
// Cloud Storage Service Cost" (Wang et al., ICPP 2020).
//
// MiniCost assigns a web application's data files to cloud storage tiers
// (hot / cool / archive) over time so as to minimize the total payment to
// the cloud service provider. It formulates the problem as an MDP and
// solves it with an A3C reinforcement-learning agent; a concurrent-request
// aggregation enhancement further trims the bill.
//
// Typical use:
//
//	tr, _ := minicost.GenerateTrace(minicost.DefaultTraceConfig())
//	sys, _ := minicost.New(minicost.DefaultConfig())
//	sys.Train(tr)                 // fit the agent on historical data
//	report, _ := sys.Run(tr)      // serve a workload and bill its plan
//	fmt.Println(report.Total)
//
// The heavy lifting lives in internal packages; this package re-exports the
// stable surface. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the paper-reproduction results.
package minicost

import (
	"io"

	"minicost/internal/agentserver"
	"minicost/internal/aggregate"
	"minicost/internal/core"
	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// Tier identifies a storage tier.
type Tier = pricing.Tier

// The supported tiers.
const (
	Hot     = pricing.Hot
	Cool    = pricing.Cool
	Archive = pricing.Archive
)

// PricingPolicy is a CSP's per-tier price schedule.
type PricingPolicy = pricing.Policy

// AzurePricing returns the default Azure-Block-Blob-like schedule used in
// the paper's experiments.
func AzurePricing() *PricingPolicy { return pricing.Azure() }

// ParsePricing decodes and validates a JSON price schedule.
func ParsePricing(data []byte) (*PricingPolicy, error) { return pricing.ParsePolicy(data) }

// Trace is a workload: per-file daily read/write frequencies, sizes and
// concurrent-request groups.
type Trace = trace.Trace

// TraceFileMeta is a file's static metadata inside a Trace.
type TraceFileMeta = trace.FileMeta

// TraceGroup is a set of files receiving concurrent requests.
type TraceGroup = trace.Group

// TraceConfig parameterizes the synthetic Wikipedia-like generator.
type TraceConfig = trace.GenConfig

// DefaultTraceConfig returns the workload profile calibrated to the paper's
// measurements (Fig. 2 volatility shares, 100 MB Poisson sizes, weekly
// cycle).
func DefaultTraceConfig() TraceConfig { return trace.DefaultGenConfig() }

// GenerateTrace produces a deterministic synthetic workload.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// ReadTraceCSV loads a workload written with Trace.WriteCSV.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// Breakdown is a bill split into the paper's four cost components
// (storage, read, write, tier transition).
type Breakdown = costmodel.Breakdown

// Config configures a System.
type Config = core.Config

// DefaultConfig returns the paper's system configuration (§6.1): the A3C
// agent with a 128-filter conv front-end and 128-neuron hidden layer,
// Azure pricing, files starting hot.
func DefaultConfig() Config { return core.DefaultConfig() }

// AggregationConfig controls the §5.2 concurrent-request aggregation
// enhancement; set Config.Aggregation to enable it.
type AggregationConfig = aggregate.Config

// DefaultAggregationConfig returns the paper's enhancement settings.
func DefaultAggregationConfig() AggregationConfig { return aggregate.DefaultConfig() }

// System is a MiniCost instance: train it on a historical trace, then run
// it over a live workload.
type System = core.System

// New builds a system from a configuration.
func New(cfg Config) (*System, error) { return core.New(cfg) }

// RunReport is the outcome of System.Run: the bill, priced exactly as
// Score prices a method, decision-time accounting and tier-change counts.
type RunReport = core.RunReport

// TrainStats summarizes a training run.
type TrainStats = rl.TrainStats

// RewardConfig is Eq. 4's parameterisation (α, Δ and stabilisers).
type RewardConfig = mdp.RewardConfig

// DefaultReward returns the reward settings used in the experiments.
func DefaultReward() RewardConfig { return mdp.DefaultReward() }

// Assigner is a tier-assignment strategy: given a workload it produces a
// per-file per-day tier plan. The paper's baselines are exposed below.
type Assigner = policy.Assigner

// Baselines.

// HotBaseline keeps every file hot.
func HotBaseline() Assigner { return policy.Static{Tier: pricing.Hot} }

// ColdBaseline keeps every file in the cool ("cold") tier.
func ColdBaseline() Assigner { return policy.Static{Tier: pricing.Cool} }

// ArchiveBaseline keeps every file archived.
func ArchiveBaseline() Assigner { return policy.Static{Tier: pricing.Archive} }

// GreedyBaseline is the paper's per-day myopic comparison algorithm.
func GreedyBaseline() Assigner { return policy.Greedy{} }

// OptimalBaseline is the offline exact optimum (the paper's
// "brutal-force" lower bound, computed by an equivalent dynamic program).
func OptimalBaseline() Assigner { return policy.Optimal{} }

// Baselines returns the paper's comparison methods in its plot order: Hot,
// Cold, Greedy and Optimal.
func Baselines() []Assigner { return policy.Baselines(0) }

// Scoreboard holds each scored method's row on one trace, in the order the
// methods were given: its name, plan, per-file bills, total bill and ratio
// to the board's "optimal" row.
type Scoreboard = policy.Scoreboard

// Score prices each method's plan on a trace under a pricing policy, every
// file starting hot: the paper's yardstick (§6.1), e.g.
// Score(tr, p, Baselines()...).
func Score(tr *Trace, p *PricingPolicy, methods ...Assigner) (Scoreboard, error) {
	return policy.Score(costmodel.New(p), tr, pricing.Hot, 0, methods...)
}

// Agent serving (the paper's §4.2 agent server).

// AgentServer exposes a trained agent over HTTP (observe/plan endpoints).
type AgentServer = agentserver.Server

// NewAgentServer wraps a system's trained agent as an HTTP service; mount
// AgentServer.Handler on any mux.
func NewAgentServer(sys *System, initial Tier) (*AgentServer, error) {
	agent := sys.Agent()
	if agent == nil {
		return nil, core.ErrUntrained
	}
	return agentserver.New(agent, initial)
}

// AgentClient is the typed client for AgentServer's HTTP API.
type AgentClient = agentserver.Client

// NewAgentClient returns a client for the given base URL.
func NewAgentClient(baseURL string) *AgentClient { return agentserver.NewClient(baseURL) }

// AgentFileObservation is one file's daily measurement sent to the service.
type AgentFileObservation = agentserver.FileObservation

// AgentObserveRequest is one day's observation batch.
type AgentObserveRequest = agentserver.ObserveRequest

// AgentPlanResponse is the assignment plan returned by the service.
type AgentPlanResponse = agentserver.PlanResponse
