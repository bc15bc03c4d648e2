package policy

import (
	"fmt"
	"runtime"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// RL adapts a trained MiniCost agent into an Assigner: for each file it
// replays the trace day by day, feeding the agent the trailing history
// window and applying its greedy decision — exactly the serving loop of
// Algorithm 1 ("everyday, the trained agent runs one time for all data
// files").
//
// Assign is rl.PlanTrace, the batched inference engine: files are split into
// contiguous chunks, each chunk plans day-major through rl.Agent.DecideTrace
// straight from the trace — one GEMM per network layer per day instead of
// one forward pass per file, and no billing —
// on pooled replicas: scratch over the agent's weights, which are shared and
// packed for the GEMM kernel once per pool, so their number is bounded by the
// worker count instead of the file count and none copies the network. The
// agent is only read. Decisions are bitwise identical to a per-file loop of
// single-sample Decide calls (see nn/batch.go), which the tests keep as the
// oracle.
type RL struct {
	Agent *rl.Agent
	// HistLen, when non-zero, must equal Agent.Net.HistLen, the window the
	// network was built for: any other value is an error, not a plan.
	HistLen int
	Workers int
}

// Name implements Assigner.
func (RL) Name() string { return "minicost" }

// Assign implements Assigner.
func (p RL) Assign(tr *trace.Trace, m *costmodel.Model, initial pricing.Tier) (costmodel.Assignment, error) {
	if p.Agent == nil {
		return nil, fmt.Errorf("policy: RL assigner without an agent")
	}
	if p.HistLen != 0 && p.HistLen != p.Agent.Net.HistLen {
		return nil, fmt.Errorf("policy: RL HistLen %d, but the agent's network reads a %d-day window",
			p.HistLen, p.Agent.Net.HistLen)
	}
	// Shrink the default batch so every worker gets a chunk — with few files
	// a fixed 256-row batch would leave most workers idle.
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := min(rl.DefaultBatchRows, max((tr.NumFiles()+workers-1)/workers, 1))
	return rl.PlanTrace(rl.NewReplicaPool(p.Agent), tr, initial, batch, p.Workers)
}
