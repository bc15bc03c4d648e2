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
// contiguous chunks (so each chunk's environments stay thread-local to one
// goroutine), each chunk steps day-major through rl.Agent.DecideTrace —
// one GEMM per network layer per day instead of one forward pass per file —
// on pooled replicas: scratch over the agent's weights, which are shared and
// packed for the GEMM kernel once per pool, so their number is bounded by the
// worker count instead of the file count and none copies the network. The
// agent is only read. Decisions are bitwise identical to a per-file loop of
// single-sample Decide calls (see nn/batch.go), which the tests keep as the
// oracle.
type RL struct {
	Agent   *rl.Agent
	HistLen int
	Workers int
	// Pool optionally supplies the replica pool (e.g. shared across repeated
	// evaluations of training snapshots); Assign builds a private one when
	// nil.
	Pool *rl.ReplicaPool
	// BatchRows caps how many files one batched step packs into a feature
	// matrix (bounding per-worker activation memory); <= 0 selects
	// rl.DefaultBatchRows.
	BatchRows int
}

// Name implements Assigner.
func (RL) Name() string { return "minicost" }

// Assign implements Assigner.
func (p RL) Assign(tr *trace.Trace, m *costmodel.Model, initial pricing.Tier) (costmodel.Assignment, error) {
	if p.Agent == nil {
		return nil, fmt.Errorf("policy: RL assigner without an agent")
	}
	histLen := p.HistLen
	if histLen <= 0 {
		histLen = p.Agent.Net.HistLen
	}
	n := tr.NumFiles()
	batch := p.BatchRows
	if batch <= 0 {
		batch = rl.DefaultBatchRows
		// Shrink the default so every worker gets a chunk — with few files a
		// fixed 256-row batch would leave most workers idle. An explicit
		// BatchRows is always respected.
		workers := p.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if per := (n + workers - 1) / workers; per < batch {
			batch = per
			if batch < 1 {
				batch = 1
			}
		}
	}
	pool := p.Pool
	if pool == nil {
		pool = rl.NewReplicaPool(p.Agent)
	}
	return rl.PlanTrace(pool, m, tr, histLen, initial, batch, p.Workers)
}
