package policy

import (
	"fmt"
	"runtime"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/par"
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
// The default path is the batched inference engine: files are split into
// contiguous chunks (so each chunk's environments stay thread-local to one
// goroutine), each chunk steps day-major through rl.Agent.DecideTrace —
// one GEMM per network layer per day instead of one forward pass per file —
// on pooled replicas: scratch over the agent's weights, which are shared and
// packed for the GEMM kernel once per pool, so their number is bounded by the
// worker count instead of the file count and none copies the network. The
// agent is only read. Decisions are bitwise identical to the single-sample
// reference path (see nn/batch.go), which SingleSample exposes for
// equivalence tests and benchmarks.
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
	// SingleSample forces the legacy per-file single-sample loop — the
	// reference implementation batched inference is verified against.
	SingleSample bool
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
	if p.SingleSample {
		return p.assignSingleSample(tr, m, initial, histLen)
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
	asg := costmodel.NewAssignment(n, tr.Days)
	reward := mdp.DefaultReward()
	chunkErrs := make([]error, (n+batch-1)/batch)
	par.ForBatched(n, batch, p.Workers, func(lo, hi int) {
		rep := pool.Get()
		defer pool.Put(rep)
		if err := rep.DecideTrace(m, tr, lo, hi, initial, histLen, reward, asg, 1); err != nil {
			chunkErrs[lo/batch] = err
		}
	})
	for _, err := range chunkErrs {
		if err != nil {
			return nil, err
		}
	}
	return asg, nil
}

// assignSingleSample is the pre-batching serving loop: one cloned network
// per goroutine task and one single-sample forward pass per (file, day).
// It is kept as the reference the equivalence property test and the
// inference benchmarks compare the batched engine against.
func (p RL) assignSingleSample(tr *trace.Trace, m *costmodel.Model, initial pricing.Tier, histLen int) (costmodel.Assignment, error) {
	asg := costmodel.NewAssignment(tr.NumFiles(), tr.Days)
	reward := mdp.DefaultReward()
	errs := make([]error, tr.NumFiles())
	par.For(tr.NumFiles(), p.Workers, func(i int) {
		// Each goroutine needs its own network (activation caches).
		agent := p.Agent.Clone()
		env, err := mdp.NewEnv(m, tr.Files[i].SizeGB, tr.Reads[i], tr.Writes[i], initial, histLen, reward)
		if err != nil {
			errs[i] = err
			return
		}
		plan := asg[i]
		state := env.Reset()
		for d := 0; d < tr.Days; d++ {
			tier := agent.Decide(&state)
			next, _, _, _, err := env.Step(tier)
			if err != nil {
				errs[i] = err
				return
			}
			plan[d] = tier
			state = next
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return asg, nil
}
