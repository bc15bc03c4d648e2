package mat

import "minicost/internal/par"

// This file holds the multi-core layer of the GEMM engine: the worker-aware
// row-panel sizing and thresholds shared by every parallel product and
// packer.
//
// Parallel decomposition never touches the numerical contract (gemm.go):
// panels shard *independent output elements* (rows of the destination,
// tiles of a packed operand), so every element's shared-dimension
// accumulation stays sequential and bitwise identical at any worker count —
// not just at workers=1. The equivalence tests in parallel_test.go pin this
// across odd shapes.

// gemmMinPanel is the smallest row panel handed to one worker: below this
// the per-chunk dispatch (one atomic increment plus cache handoff of the
// panel) stops amortizing against the panel's flops.
const gemmMinPanel = 16

// packParMin is the packed-operand size (floats) below which parallel
// packing is not worth the fan-out.
const packParMin = 1 << 15

// resolveWorkers normalizes a caller-facing workers knob: <= 0 selects the
// default (GOMAXPROCS), anything else is taken as-is.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return par.DefaultWorkers()
	}
	return workers
}

// parPanel sizes the row panels that shard rows over workers: small enough
// that every worker sees at least two panels (par.ForBatched hands panels
// out dynamically, so extra panels absorb stragglers), never smaller than
// min (dispatch cost needs a floor), and never larger than gemmRowTile (the
// serial chunk size, so workers=1 visits the same panel sequence as before).
func parPanel(rows, workers, min int) int {
	if workers <= 1 {
		return gemmRowTile
	}
	p := (rows + 2*workers - 1) / (2 * workers)
	if p < min {
		p = min
	}
	if p > gemmRowTile {
		p = gemmRowTile
	}
	return p
}
