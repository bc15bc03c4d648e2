package online

import (
	"math"

	"minicost/internal/agentserver"
)

// Drift detection compares the live observation stream against the
// distribution of its first calibBatches tap batches, and after each
// fine-tune epoch against everything seen so far: a policy keeps minimizing
// cost only while the workload still looks like what it was trained on. Four streaming dimensions are tracked — daily
// read rate, daily write rate, file size, and inter-access gap (a file's
// observed days between its active days) — each as a fixed-edge histogram,
// and each
// scored with the population stability index
//
//	PSI = Σ_buckets (curP − baseP) · ln(curP / baseP)
//
// which is the symmetrized KL divergence between the baseline and current
// bucket distributions. The conventional reading: < 0.1 stable, 0.1–0.25
// moderate shift, > 0.25 drifted. The exported drift score is the maximum
// over the four dimensions, so a shift in any one statistic can trip the
// retraining trigger.
//
// The histograms are agentserver.DriftCounts: live samples are bucketed by
// the serving store's shard ingest, under the shard lock it already holds,
// and the learner's tap only drains the counts. Bucket edges are fixed, so
// scoring is O(buckets) with no allocation, and counts are integers, so the
// score is a deterministic function of the observed values alone whatever
// order the shards ingested in.

// psiEps floors bucket proportions so empty buckets contribute a large but
// finite penalty instead of ±Inf.
const psiEps = 1e-4

// minDriftSamples is the per-dimension sample count below which the PSI is
// reported as zero — a handful of observations says nothing about drift.
const minDriftSamples = 64

// psi scores one dimension's current-window histogram against its baseline.
// Returns 0 until both sides carry minDriftSamples.
//
//minicost:hotpath
func psi(cur, base *[agentserver.DriftBuckets]uint64) float64 {
	var curN, baseN uint64
	for i := range cur {
		curN += cur[i]
		baseN += base[i]
	}
	if curN < minDriftSamples || baseN < minDriftSamples {
		return 0
	}
	score := 0.0
	for i := range cur {
		c := max(float64(cur[i])/float64(curN), psiEps)
		r := max(float64(base[i])/float64(baseN), psiEps)
		score += (c - r) * math.Log(c/r)
	}
	return score
}

var driftDimNames = [agentserver.NumDriftDims]string{"reads", "writes", "size_gb", "gap_days"}

// driftStats holds the four-dimensional baseline and current-window
// histograms. Not internally locked: the learner mutates it only under its
// tap mutex. Build it calibrating.
type driftStats struct {
	base, cur agentserver.DriftCounts

	// calibrating self-builds the baseline from the first calibBatches tap
	// batches.
	calibrating bool
	seenBatches int
}

// target returns the histogram set samples flow into: the baseline while
// self-calibrating, the current window afterwards.
//
//minicost:hotpath
func (ds *driftStats) target() *agentserver.DriftCounts {
	if ds.calibrating {
		return &ds.base
	}
	return &ds.cur
}

// endBatch advances the self-calibration window; the learner calls it once
// per tap batch.
func (ds *driftStats) endBatch() {
	if !ds.calibrating {
		return
	}
	ds.seenBatches++
	if ds.seenBatches >= calibBatches {
		ds.calibrating = false
	}
}

// dimScores reports the per-dimension PSIs; all zero while calibrating.
//
//minicost:hotpath
func (ds *driftStats) dimScores() [agentserver.NumDriftDims]float64 {
	var out [agentserver.NumDriftDims]float64
	if ds.calibrating {
		return out
	}
	for d := range out {
		out[d] = psi(&ds.cur[d], &ds.base[d])
	}
	return out
}

// score returns the current drift score: max PSI over the dimensions.
//
//minicost:hotpath
func (ds *driftStats) score() float64 {
	s := 0.0
	for _, v := range ds.dimScores() {
		s = max(s, v)
	}
	return s
}

// rebaseline folds the current window into the baseline and clears it —
// called after every fine-tune epoch, swapped in or not: the epoch consumed
// the drift signal, and leaving the window in place would re-trigger on the
// same shift at the very next batch.
func (ds *driftStats) rebaseline() {
	ds.base.Add(&ds.cur)
	ds.cur = agentserver.DriftCounts{}
}
