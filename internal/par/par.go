// Package par provides small, dependency-free parallelism helpers used
// throughout the MiniCost codebase: a bounded parallel-for, chunked and
// batched variants for cache-friendly sharding, and a shard fan-out.
//
// All helpers are deterministic in their results (order of side effects is
// not specified, but every index is visited exactly once) and degrade to a
// plain serial loop when the worker count is 1 or the input is small.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"minicost/internal/obs"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0.
// It is GOMAXPROCS at call time, never less than 1.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// serialThreshold is the input size below which parallel helpers run the
// loop inline; spawning goroutines for a handful of items costs more than
// it saves.
const serialThreshold = 64

// For runs fn(i) for every i in [0, n) using at most workers goroutines.
// workers <= 0 selects DefaultWorkers(). It blocks until all iterations
// complete. Iterations are distributed dynamically (atomic counter), which
// balances uneven per-item work at the cost of one atomic op per item.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers == 1 || n < serialThreshold {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForShards runs fn(s) for every shard s in [0, n) using at most workers
// goroutines. Unlike For, it never degrades to a serial loop on small n:
// shard counts are small by construction — each shard is a coarse unit of
// work guarding its own state (a lock, a partition of a store) — so the
// fan-out must happen even for n of 4 or 16, exactly the range For's
// serial threshold would swallow. Shards are handed out dynamically
// (atomic counter), so uneven shard occupancy still balances.
//
// workers <= 0 selects DefaultWorkers(). It blocks until every shard
// completes.
func ForShards(n, workers int, fn func(s int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for s := 0; s < n; s++ {
			fn(s)
		}
		return
	}
	rec := obs.Default().Enabled()
	if rec {
		defer fanOut(workers)()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= n {
					return
				}
				if rec {
					timedShard(fn, s)
				} else {
					fn(s)
				}
			}
		}()
	}
	wg.Wait()
}

// ForChunked runs fn(lo, hi) over contiguous half-open chunks [lo, hi) that
// partition [0, n). Each chunk is processed by one goroutine; chunks are
// sized n/workers (±1). Use it when per-item work is tiny and uniform so the
// atomic counter of For would dominate, e.g. vector arithmetic.
func ForChunked(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 || n < serialThreshold {
		fn(0, n)
		return
	}
	rec := obs.Default().Enabled()
	if rec {
		defer fanOut(workers)()
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := n / workers
	rem := n % workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		go func(lo, hi int) {
			defer wg.Done()
			if rec {
				timedChunk(fn, lo, hi)
			} else {
				fn(lo, hi)
			}
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// ForBatched runs fn(lo, hi) over contiguous half-open chunks [lo, hi) of at
// most batch items that partition [0, n), using at most workers goroutines.
// Chunks are handed out dynamically (atomic counter over chunk indices), so
// uneven per-chunk work still balances, but — unlike For — every call of fn
// sees a stable contiguous index range. Batched steppers rely on this: they
// pack per-item state for [lo, hi) into one matrix, so the chunk must be a
// contiguous slice of the index space, never an arbitrary subset.
//
// workers <= 0 selects DefaultWorkers(); batch <= 0 panics. It blocks until
// every chunk completes.
func ForBatched(n, batch, workers int, fn func(lo, hi int)) {
	if batch <= 0 {
		panic("par: ForBatched batch must be positive")
	}
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	chunks := (n + batch - 1) / batch
	if workers > chunks {
		workers = chunks
	}
	if workers == 1 {
		for c := 0; c < chunks; c++ {
			lo := c * batch
			hi := lo + batch
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	rec := obs.Default().Enabled()
	if rec {
		defer fanOut(workers)()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * batch
				hi := lo + batch
				if hi > n {
					hi = n
				}
				if rec {
					timedChunk(fn, lo, hi)
				} else {
					fn(lo, hi)
				}
			}
		}()
	}
	wg.Wait()
}
