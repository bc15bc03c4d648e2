package rl

import (
	"fmt"
	"math"
	"sync"

	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/par"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// Batched serving: the per-file inference loop (one cloned network and one
// forward pass per file and day) does not survive contact with trace-scale
// populations, so serving restructures decision-making day-major — pack
// every file's feature vector for day d into one batch matrix, run one GEMM
// per layer per day, and take the per-row argmax. Decide is the one-row case
// for one-off decisions; each row of a batch decides exactly as it would
// alone, because nn holds every row of a ForwardBatch bitwise to its scalar
// test oracle (see nn/batch.go).

// DefaultBatchRows is the chunk size batched steppers use: large enough
// that GEMM dominates per-row bookkeeping, small enough that one chunk's
// activations (batch × conv-output floats) stay a few MB per worker.
const DefaultBatchRows = 256

// DecideBatch writes the greedy (argmax-logit) tier of every feature row
// into out[0:x.Rows]. Feature rows are built with mdp.State.FeaturesInto.
// It runs on the calling goroutine: callers that want more cores decide
// several batches at once, one per replica. workers must be 0 or 1 (see
// nn.Network.ForwardBatch); it stays only because the end-to-end benchmark
// passes it, and goes when the benchmark next changes. Like Decide, it is
// not safe for concurrent use on one Agent; use a ReplicaPool for that.
//
//minicost:hotpath
func (a *Agent) DecideBatch(x *mat.Matrix, out []pricing.Tier, workers int) {
	if len(out) < x.Rows {
		panic(fmt.Sprintf("rl: DecideBatch out len %d < batch %d", len(out), x.Rows))
	}
	logits := a.actor.ForwardBatch(x, workers)
	for r := 0; r < logits.Rows; r++ {
		row := logits.Row(r)
		best := 0
		for i := 1; i < len(row); i++ {
			if row[i] > row[best] {
				best = i
			}
		}
		out[r] = pricing.Tier(best)
	}
}

// DecideTrace plans the files [lo, hi) of a trace with day-major batched
// decisions under the decision rule (package mdp), writing each file's
// per-day plan into out[lo:hi]: day 0 is served in initial, so a 1-day trace
// plans all-initial. A file's state for day d depends only on its trace
// before d and the tier it chose for day d-1, so the states are built
// straight from the trace (mdp.State.FillHistory) and nothing is billed:
// pricing the plan is the caller's business (costmodel.Model.TraceCost).
// Each file's log1p read series is taken once up front and every window of
// it is handed to the encoder (mdp.State.ReadLogs), instead of each day's
// logarithm being retaken in every window that slides over it. Each file is
// validated with mdp.CheckEpisode, as an mdp.Env episode is, and its series
// must cover tr.Days; a bad file is an error, never a panic. The agent's serving
// scratch — feature matrix, tier buffer, log series and history window — is
// reused across calls, so a replica that serves many chunks reaches a fully
// allocation-free steady state, which the rl allocation tests pin down. The
// history window is the network's own, a.Net.HistLen.
func (a *Agent) DecideTrace(tr *trace.Trace, lo, hi int, initial pricing.Tier, out costmodel.Assignment) error {
	b := hi - lo
	if b <= 0 {
		return nil
	}
	histLen := a.Net.HistLen
	for i := lo; i < hi; i++ {
		reads, writes := tr.Reads[i], tr.Writes[i]
		if err := mdp.CheckEpisode(tr.Files[i].SizeGB, reads, writes, initial, histLen); err != nil {
			return fmt.Errorf("rl: file %d: %w", i, err)
		}
		if len(reads) < tr.Days {
			return fmt.Errorf("rl: file %d: %d days of series for a %d-day trace", i, len(reads), tr.Days)
		}
		// Reuse a caller-provided plan (e.g. an arena-backed assignment slot)
		// when it already has the right length.
		if len(out[i]) != tr.Days {
			out[i] = make(costmodel.Plan, tr.Days)
		}
		if tr.Days > 0 {
			out[i][0] = initial
		}
	}
	a.feats = mat.EnsureShape(a.feats, b, mdp.FeatureDim(histLen))
	if cap(a.tiers) < b {
		a.tiers = make([]pricing.Tier, b)
	}
	if cap(a.window.ReadHistory) < histLen {
		a.window.ReadHistory = make([]float64, histLen)
		a.window.WriteHistory = make([]float64, histLen)
		a.window.ReadLogs = make([]float64, histLen)
	}
	if cap(a.logs) < b*tr.Days {
		a.logs = make([]float64, b*tr.Days)
	}
	logs := a.logs[:b*tr.Days]
	for i := 0; i < b; i++ {
		for d, v := range tr.Reads[lo+i][:tr.Days] {
			logs[i*tr.Days+d] = math.Log1p(v)
		}
	}
	tiers := a.tiers[:b]
	st := &a.window
	st.ReadHistory, st.WriteHistory = st.ReadHistory[:histLen], st.WriteHistory[:histLen]
	st.ReadLogs = st.ReadLogs[:histLen]
	for d := 1; d < tr.Days; d++ {
		for i := 0; i < b; i++ {
			f := lo + i
			st.FillHistory(tr.Reads[f], tr.Writes[f], logs[i*tr.Days:(i+1)*tr.Days], d)
			st.SizeGB = tr.Files[f].SizeGB
			st.Tier = out[f][d-1]
			st.FeaturesInto(a.feats.Row(i))
		}
		a.DecideBatch(a.feats, tiers, 1)
		for i, t := range tiers {
			out[lo+i][d] = t
		}
	}
	return nil
}

// PlanTrace decides every file of tr with the batched engine — Algorithm 1's
// daily serving loop over the whole trace. The files are cut into contiguous
// chunks of at most batch rows, and each chunk plans day-major through
// DecideTrace on a replica from pool, with at most workers chunks in flight
// (workers <= 0 selects GOMAXPROCS). It returns the per-file, per-day plan
// or the first failing chunk's error.
func PlanTrace(pool *ReplicaPool, tr *trace.Trace, initial pricing.Tier, batch, workers int) (costmodel.Assignment, error) {
	n := tr.NumFiles()
	asg := costmodel.NewAssignment(n, tr.Days)
	chunkErrs := make([]error, (n+batch-1)/batch)
	par.ForBatched(n, batch, workers, func(lo, hi int) {
		rep := pool.Get()
		defer pool.Put(rep)
		if err := rep.DecideTrace(tr, lo, hi, initial, asg); err != nil {
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

// Replica is a pooled per-goroutine view of an agent: the source's weights
// and their kernel-layout packs shared read-only, activation and serving
// scratch of its own. It embeds *Agent, so it is used exactly like one —
// except that its parameters cannot be rewritten — and is returned with
// ReplicaPool.Put when done.
type Replica struct {
	*Agent
	version uint64
}

// ReplicaPool hands out replicas of a source agent so that concurrent
// servers stop rebuilding a network per request (or per file): the replica
// count is bounded by the peak number of concurrent holders, not by request
// volume. What a policy version costs is paid once, in NewReplicaPool or
// Swap: one pack of each Dense weight block into the GEMM kernel's layout
// (nn.Network.Freeze). A replica is then a view over the source's parameter
// slices and those packs that owns nothing but scratch, so Get copies no
// weights and DecideBatch packs none. Swap refreshes the source on snapshot
// updates; replicas from before the swap are discarded on Put instead of
// being reused with stale weights.
//
// The pool only ever reads the source agent, and nothing is written into it,
// so several pools may stand over one agent at once. In exchange the source's
// parameters must stay unmodified for as long as the pool or any replica of
// it is in use — publish new weights through Swap.
//
// The zero ReplicaPool has no source: Get returns nil until the first Swap
// installs one (a server that starts on another policy and takes an agent
// later).
//
// The free list is an explicit mutex-guarded slice rather than a sync.Pool:
// a sync.Pool may drop items at any GC (unbounding replica construction,
// which the allocation tests pin down) and cannot invalidate stale replicas
// on Swap — the version check here needs to see every Get/Put anyway.
type ReplicaPool struct {
	mu      sync.Mutex
	shared  *Agent // the source over a frozen view of its actor; replicas are clones, i.e. further views
	version uint64
	free    []*Replica
	created int64
	packs   int64
}

// NewReplicaPool builds a pool around src, packing its weights once.
func NewReplicaPool(src *Agent) *ReplicaPool {
	if src == nil {
		panic("rl: NewReplicaPool with nil agent")
	}
	return &ReplicaPool{shared: NewAgent(src.Net, src.actor.Freeze()), packs: 1}
}

// Get returns a replica of the current source, reusing a pooled one when
// available, or nil while the pool has no source. The replica is
// exclusively owned by the caller until Put.
func (p *ReplicaPool) Get() *Replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.shared == nil {
		return nil
	}
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	p.created++
	return &Replica{Agent: p.shared.Clone(), version: p.version}
}

// Put returns a replica to the pool. Replicas taken before the last Swap
// are dropped so stale weights never serve another request.
func (p *ReplicaPool) Put(r *Replica) {
	if r == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.version == p.version {
		p.free = append(p.free, r)
	}
}

// Swap replaces the source agent (a new training snapshot), packing its
// weights once, and invalidates every replica built from the previous one.
func (p *ReplicaPool) Swap(src *Agent) {
	if src == nil {
		panic("rl: ReplicaPool.Swap with nil agent")
	}
	shared := NewAgent(src.Net, src.actor.Freeze()) // outside the lock: Get must not wait on a pack
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shared = shared
	p.version++
	p.free = p.free[:0]
	p.created = 0
	p.packs++
}

// Created returns how many replicas have been built for the current source
// — the observable the "no clone per file" allocation tests assert on.
func (p *ReplicaPool) Created() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}

// Packs returns how many times the pool has packed a source's weights into
// kernel layout over its life: once when it was built and once per Swap,
// however many replicas were handed out and batches decided in between.
func (p *ReplicaPool) Packs() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.packs
}
