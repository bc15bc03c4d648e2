package rl

import (
	"fmt"
	"sync"

	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// Batched serving: the per-file inference loop (one cloned network and one
// single-sample forward pass per file and day) does not survive contact with
// trace-scale populations, so serving restructures decision-making
// day-major — pack every file's feature vector for day d into one batch
// matrix, run one GEMM per layer per day, and take the per-row argmax. The
// single-sample Decide stays for one-off decisions and as the reference
// implementation the equivalence tests check DecideBatch against (results
// are bitwise identical; see nn/batch.go).

// DefaultBatchRows is the chunk size batched steppers use: large enough
// that GEMM dominates per-row bookkeeping, small enough that one chunk's
// activations (batch × conv-output floats) stay a few MB per worker.
const DefaultBatchRows = 256

// DecideBatch writes the greedy (argmax-logit) tier of every feature row
// into out[0:x.Rows]. Feature rows are built with mdp.State.FeaturesInto.
// workers bounds the intra-GEMM fan-out — pass 1 when the caller already
// runs one DecideBatch per goroutine. Like Decide, it is not safe for
// concurrent use on one Agent; use a ReplicaPool for that.
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

// DecideTrace steps the files [lo, hi) of a trace through their episodes
// with day-major batched decisions, writing each file's per-day plan into
// out[lo:hi]. The agent's serving scratch — feature matrix, tier buffer,
// and the per-file environments themselves (recycled via mdp.Env.Reinit
// with recycled observations) — is reused across calls, so a replica that
// serves many chunks reaches a fully allocation-free steady state, which
// the rl allocation tests pin down.
func (a *Agent) DecideTrace(model *costmodel.Model, tr *trace.Trace, lo, hi int, initial pricing.Tier, histLen int, reward mdp.RewardConfig, out costmodel.Assignment, workers int) error {
	b := hi - lo
	if b <= 0 {
		return nil
	}
	a.feats = mat.EnsureShape(a.feats, b, mdp.FeatureDim(histLen))
	if cap(a.tiers) < b {
		a.tiers = make([]pricing.Tier, b)
	}
	if cap(a.envs) < b {
		envs := make([]*mdp.Env, b)
		copy(envs, a.envs)
		a.envs = envs
		a.states = make([]mdp.State, b)
	}
	tiers := a.tiers[:b]
	envs := a.envs[:b]
	states := a.states[:b]
	for i := 0; i < b; i++ {
		if envs[i] == nil {
			envs[i] = &mdp.Env{}
			envs[i].EnableStateReuse()
		}
		if err := envs[i].Reinit(model, tr.Files[lo+i].SizeGB, tr.Reads[lo+i], tr.Writes[lo+i], initial, histLen, reward); err != nil {
			return err
		}
		states[i] = envs[i].Reset()
		// Reuse a caller-provided plan (e.g. an arena-backed assignment slot)
		// when it already has the right length.
		if len(out[lo+i]) != tr.Days {
			out[lo+i] = make(costmodel.Plan, tr.Days)
		}
	}
	for d := 0; d < tr.Days; d++ {
		for i := range envs {
			states[i].FeaturesInto(a.feats.Row(i))
		}
		a.DecideBatch(a.feats, tiers, workers)
		for i, env := range envs {
			next, _, _, _, err := env.Step(tiers[i])
			if err != nil {
				return err
			}
			out[lo+i][d] = tiers[i]
			states[i] = next
		}
	}
	return nil
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
// available. The replica is exclusively owned by the caller until Put.
func (p *ReplicaPool) Get() *Replica {
	p.mu.Lock()
	defer p.mu.Unlock()
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
