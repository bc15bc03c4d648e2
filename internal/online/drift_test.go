package online

import (
	"testing"

	"minicost/internal/agentserver"
	"minicost/internal/rng"
)

const (
	dimReads  = agentserver.DriftReads
	dimWrites = agentserver.DriftWrites
	dimSize   = agentserver.DriftSize
	dimGap    = agentserver.DriftGap
)

// total sums one dimension's bucket counts.
func total(h [agentserver.DriftBuckets]uint64) (n uint64) {
	for _, c := range h {
		n += c
	}
	return n
}

// calibrated returns a detector whose baseline holds n hot-regime samples,
// fed in the first of its calibBatches calibration batches.
func calibrated(n int, seed uint64) *driftStats {
	ds := &driftStats{calibrating: true}
	fillDist(ds, n, seed, false)
	for b := 0; b < calibBatches; b++ {
		ds.endBatch()
	}
	return ds
}

// fill streams n samples from a synthetic hot-ish distribution into the
// detector's active target (baseline while calibrating, current after).
func fillDist(ds *driftStats, n int, seed uint64, cold bool) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		base := r.Float64()
		dst := ds.target()
		if cold {
			dst.Observe(dimReads, base*20)
			dst.Observe(dimWrites, base*2)
			dst.Observe(dimSize, 0.1+base*base*400)
		} else {
			dst.Observe(dimReads, base*2000)
			dst.Observe(dimWrites, base*20)
			dst.Observe(dimSize, 0.01+base*base*50)
		}
		dst.Observe(dimGap, 1+float64(i%4))
	}
}

func TestDriftStableDistributionScoresLow(t *testing.T) {
	ds := calibrated(2000, 1)
	if ds.calibrating {
		t.Fatalf("%d batches should finish calibration", calibBatches)
	}
	fillDist(ds, 2000, 2, false) // same distribution, different draw
	if s := ds.score(); s > 0.05 {
		t.Fatalf("same-distribution PSI = %v, want < 0.05", s)
	}
}

func TestDriftShiftScoresHigh(t *testing.T) {
	ds := calibrated(2000, 1)
	fillDist(ds, 2000, 2, true) // cold+bulky regime
	if s := ds.score(); s < 0.25 {
		t.Fatalf("shifted-distribution PSI = %v, want >= 0.25", s)
	}
	dims := ds.dimScores()
	if dims[dimReads] < 0.25 && dims[dimSize] < 0.25 {
		t.Fatalf("expected reads or size dimension to carry the shift, got %v", dims)
	}
}

func TestDriftMinSamplesGate(t *testing.T) {
	ds := calibrated(1000, 1)
	fillDist(ds, minDriftSamples-1, 2, true)
	if s := ds.score(); s != 0 {
		t.Fatalf("score with %d samples = %v, want 0", minDriftSamples-1, s)
	}
}

func TestDriftScoreZeroWhileCalibrating(t *testing.T) {
	ds := &driftStats{calibrating: true}
	fillDist(ds, 1000, 1, false)
	for b := 1; b < calibBatches; b++ {
		ds.endBatch()
	}
	if !ds.calibrating {
		t.Fatalf("should still be calibrating after %d of %d batches", calibBatches-1, calibBatches)
	}
	if s := ds.score(); s != 0 {
		t.Fatalf("score during calibration = %v, want 0", s)
	}
}

func TestDriftRebaselineConsumesShift(t *testing.T) {
	ds := calibrated(2000, 1)
	fillDist(ds, 2000, 2, true)
	before := ds.score()
	if before < 0.25 {
		t.Fatalf("precondition: shift not detected (%v)", before)
	}
	ds.rebaseline()
	if s := ds.score(); s != 0 {
		t.Fatalf("score after rebaseline = %v, want 0 (empty current window)", s)
	}
	// The shifted window is now baseline mass: continued cold traffic scores
	// strictly lower than the original shift did.
	fillDist(ds, 2000, 3, true)
	if s := ds.score(); s >= before {
		t.Fatalf("post-rebaseline cold traffic PSI = %v, want < %v", s, before)
	}
}
