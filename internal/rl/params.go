package rl

import (
	"sync/atomic"

	"minicost/internal/nn"
)

// This file is A3C's parameter server (Fig. 6's global network): a
// double-buffered store of the actor and critic vectors with lock-free,
// refcounted snapshot pulls, so workers bind the published weights without
// convoying on the optimizer mutex.

// paramSnap is one buffer of the double-buffered global parameter store.
// The published buffer (a.snap) is the master copy; it stays immutable until
// retired and recycled, so lock-free readers can bind it safely. refs counts
// in-flight snapshot readers; a retired buffer is reused for a later apply
// only once refs drains to zero.
type paramSnap struct {
	actor, critic []float64
	refs          atomic.Int32
}

// nextSnapLocked returns a parameter buffer ready to receive the next
// update: a retired buffer whose readers have drained, or a fresh
// allocation. Steady state recycles, so the retired list stays O(Workers)
// and applies allocate nothing.
func (a *A3C) nextSnapLocked() *paramSnap {
	for i, c := range a.retired {
		if c.refs.Load() == 0 {
			last := len(a.retired) - 1
			a.retired[i] = a.retired[last]
			a.retired = a.retired[:last]
			return c
		}
	}
	cur := a.snap.Load()
	return &paramSnap{
		actor:  make([]float64, len(cur.actor)),
		critic: make([]float64, len(cur.critic)),
	}
}

// applyLocked is the optimizer apply: the update is written straight into
// the next buffer of the double-buffered store (reading the current one) and
// swapped in as published. The superseded buffer stays immutable for any
// readers still bound to it, and — unlike a copy-then-publish scheme — no
// O(params) publish pass exists beyond the optimizer's own write. Called
// with a.mu held.
func (a *A3C) applyLocked(aGrad, cGrad []float64) {
	cur := a.snap.Load()
	next := a.nextSnapLocked()
	a.actorOpt.StepTo(next.actor, cur.actor, aGrad)
	a.criticOpt.StepTo(next.critic, cur.critic, cGrad)
	a.snap.Swap(next)
	a.retired = append(a.retired, cur)
	trainMet.swaps.Inc()
}

// installLocked replaces the published parameters with copies of the given
// vectors (checkpoint restore). Called with a.mu held.
func (a *A3C) installLocked(actor, critic []float64) {
	next := a.nextSnapLocked()
	copy(next.actor, actor)
	copy(next.critic, critic)
	old := a.snap.Swap(next)
	a.retired = append(a.retired, old)
	trainMet.swaps.Inc()
}

// bindSnapshot pins the current published buffer and points the worker's
// replica networks directly at it — an O(layers) pull with no parameter
// copy. Protocol: load the pointer, announce the read by incrementing refs,
// then re-check the pointer — if it moved, this buffer may be mid-recycle,
// so release and retry against the newer one. A successful re-check proves
// the apply's writes into this buffer happened before the swap that made it
// current (atomic release/acquire on a.snap), so the data bound is complete
// even when the buffer is a recycled allocation.
//
// The returned snapshot stays pinned (refs held) until the caller passes it
// back as prev on the next bind or releases it with releaseSnapshot: the
// replica reads parameters from the buffer for the whole rollout and update,
// so it must not be recycled until the worker moves off it. If the published
// pointer still equals prev, the buffer is unchanged — a published buffer is
// immutable and cannot be recycled while prev's ref is held — and the bind
// is a no-op.
func (a *A3C) bindSnapshot(actor, critic *nn.Network, prev *paramSnap) *paramSnap {
	for {
		s := a.snap.Load()
		if s == prev {
			return prev
		}
		s.refs.Add(1)
		if a.snap.Load() == s {
			releaseSnapshot(prev)
			actor.BindParamVector(s.actor)
			critic.BindParamVector(s.critic)
			return s
		}
		s.refs.Add(-1)
	}
}

// releaseSnapshot drops a pin taken by bindSnapshot; nil is a no-op.
func releaseSnapshot(s *paramSnap) {
	if s != nil {
		s.refs.Add(-1)
	}
}
