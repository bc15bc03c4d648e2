package online

import (
	"testing"

	"minicost/internal/agentserver"
	"minicost/internal/pricing"
)

// The learner keeps no per-file state of its own: these tests pin what it
// reads out of the serving store — through the same Server API RunEpoch and
// TapObserve use — with the rings sized by hand instead of by online.New.

// obsEntry builds one observation.
func obsEntry(id string, size, reads, writes float64) agentserver.FileObservation {
	return agentserver.FileObservation{ID: id, SizeGB: size, Reads: reads, Writes: writes}
}

// newStore builds a serving server over testNet (decision window 4) whose
// rings keep `window` days per file, drift sampling on.
func newStore(t *testing.T, window, shards int) *agentserver.Server {
	t.Helper()
	srv, err := agentserver.NewWithConfig(testTrainer(t, 1).Snapshot(), pricing.Hot, agentserver.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AttachLearner(window); err != nil {
		t.Fatal(err)
	}
	return srv
}

func observe(t *testing.T, srv *agentserver.Server, files ...agentserver.FileObservation) {
	t.Helper()
	if _, err := srv.Observe(&agentserver.ObserveRequest{Files: files}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferRingKeepsLatestWindow(t *testing.T) {
	srv := newStore(t, 5, 1)
	for day := 1; day <= 8; day++ {
		observe(t, srv, obsEntry("f0", 1, float64(day), float64(day*10)))
	}
	h := srv.SnapshotHistory(1, 16)
	if len(h.IDs) != 1 || h.IDs[0] != "f0" || h.Days != 5 {
		t.Fatalf("snapshot %+v, want f0 over 5 days (the ring length)", h)
	}
	for i, want := range []float64{4, 5, 6, 7, 8} {
		if h.Reads[0][i] != want || h.Writes[0][i] != want*10 {
			t.Fatalf("window[%d] = (%v, %v), want (%v, %v)", i, h.Reads[0][i], h.Writes[0][i], want, want*10)
		}
	}
}

// TestSnapshotTrainingPopulationCap: above the cap only the snapshot is
// bounded — each shard contributes its earliest-tracked eligible files, so
// membership does not move as the population grows — while every tracked
// file keeps updating and is still drift-sampled.
func TestSnapshotTrainingPopulationCap(t *testing.T) {
	srv := newStore(t, 4, 1)
	batch := func(n int, reads float64) []agentserver.FileObservation {
		var files []agentserver.FileObservation
		for i := 0; i < n; i++ {
			files = append(files, obsEntry(fid(i), float64(i+1), reads, 1))
		}
		return files
	}
	observe(t, srv, batch(5, 1)...)
	observe(t, srv, batch(5, 2)...)
	train, holdout := snapshotTrace(srv, 1, -1, 3)
	if holdout != nil || train == nil || train.NumFiles() != 3 {
		t.Fatalf("capped snapshot: train %v holdout %v, want 3 train files", train, holdout)
	}
	var c agentserver.DriftCounts
	srv.DrainDrift(&c)
	if samples := total(c[dimReads]); samples != 10 {
		t.Fatalf("%d read samples, want 10: files past the cap must still be drift-sampled", samples)
	}
	// Growth and further days: the same three earliest files, carrying their
	// latest measurements.
	observe(t, srv, batch(9, 7)...)
	train, _ = snapshotTrace(srv, 1, -1, 3)
	if train.NumFiles() != 3 || train.Days != 3 {
		t.Fatalf("after growth: %d files over %d days, want 3 over 3", train.NumFiles(), train.Days)
	}
	for i, f := range train.Files {
		if f.SizeGB != float64(i+1) || train.Reads[i][2] != 7 {
			t.Fatalf("capped membership moved or went stale: file %d size %v reads %v", i, f.SizeGB, train.Reads[i])
		}
	}
	if got := srv.Stats().TrackedFiles; got != 9 {
		t.Fatalf("tracked %d files, want 9 (nothing is rejected)", got)
	}
	// Across shards the cap is split evenly.
	wide := newStore(t, 4, 4)
	observe(t, wide, batch(40, 1)...)
	if train, _ := snapshotTrace(wide, 1, -1, 8); train.NumFiles() > 8 {
		t.Fatalf("4-shard snapshot holds %d files, cap 8", train.NumFiles())
	}
}

func TestBufferDuplicateLastWins(t *testing.T) {
	srv := newStore(t, 4, 1)
	observe(t, srv, obsEntry("x", 1, 10, 1), obsEntry("x", 2, 99, 7))
	h := srv.SnapshotHistory(1, 16)
	if len(h.IDs) != 1 || h.Days != 1 {
		t.Fatalf("duplicate advanced the ring: %d files over %d days, want 1 over 1", len(h.IDs), h.Days)
	}
	if h.Reads[0][0] != 99 || h.Writes[0][0] != 7 || h.SizeGB[0] != 2 {
		t.Fatalf("last entry did not win: reads=%v writes=%v size=%v", h.Reads[0][0], h.Writes[0][0], h.SizeGB[0])
	}
	// One drift sample per file per batch either way.
	var c agentserver.DriftCounts
	srv.DrainDrift(&c)
	if samples := total(c[dimSize]); samples != 1 {
		t.Fatalf("%d size samples for one file in one batch, want 1", samples)
	}
}

func TestSnapshotTraceSplitAndAlignment(t *testing.T) {
	srv := newStore(t, 6, 1)
	// Ten files observed for 5 days, one latecomer observed for 2.
	for day := 1; day <= 5; day++ {
		var batch []agentserver.FileObservation
		for i := 0; i < 10; i++ {
			batch = append(batch, obsEntry(fid(i), float64(i+1), float64(day*10+i), 1))
		}
		if day >= 4 {
			batch = append(batch, obsEntry("late", 0.5, 1, 1))
		}
		observe(t, srv, batch...)
	}

	// minDays 3 excludes the latecomer (fill 2) and aligns on 5 days.
	train, holdout := snapshotTrace(srv, 3, 4, 64)
	if train == nil || holdout == nil {
		t.Fatal("expected both splits")
	}
	if train.Days != 5 || holdout.Days != 5 {
		t.Fatalf("days = %d/%d, want 5", train.Days, holdout.Days)
	}
	// The holdout is keyed on file identity: exactly the eligible files
	// whose ID hash lands in residue class 0 mod 4. Sizes are unique per
	// file (i+1), so membership is checkable through the trace metadata.
	wantHold := map[float64]bool{}
	nHold := 0
	for i := 0; i < 10; i++ {
		if agentserver.HashID(fid(i))%4 == 0 {
			wantHold[float64(i+1)] = true
			nHold++
		}
	}
	if nHold == 0 || nHold == 10 {
		t.Fatalf("degenerate test split: %d/10 held out", nHold)
	}
	if holdout.NumFiles() != nHold || train.NumFiles() != 10-nHold {
		t.Fatalf("split = %d train / %d holdout, want %d/%d",
			train.NumFiles(), holdout.NumFiles(), 10-nHold, nHold)
	}
	for _, f := range holdout.Files {
		if !wantHold[f.SizeGB] {
			t.Fatalf("file of size %v held out, not in the identity-keyed class", f.SizeGB)
		}
	}
	for i := range train.Reads {
		if len(train.Reads[i]) != 5 || len(train.Writes[i]) != 5 {
			t.Fatalf("train series %d misaligned", i)
		}
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}

	// minDays 2 admits the latecomer and truncates everyone to 2 days.
	train2, _ := snapshotTrace(srv, 2, -1, 64)
	if train2 == nil || train2.Days != 2 || train2.NumFiles() != 11 {
		t.Fatalf("minDays 2: got %v days, %d files; want 2 days, 11 files",
			train2.Days, train2.NumFiles())
	}
	// The truncated series carry the most recent days (4 and 5).
	for i := range train2.Reads {
		if train2.Files[i].SizeGB == 0.5 {
			continue // the latecomer's own pattern
		}
		if train2.Reads[i][0] < 40 {
			t.Fatalf("series %d does not start at the latest window: %v", i, train2.Reads[i])
		}
	}

	// No holdout requested.
	_, none := snapshotTrace(srv, 3, -1, 64)
	if none != nil {
		t.Fatal("holdoutEvery < 0 must disable the holdout")
	}

	// Empty store → nil.
	if tr, ho := snapshotTrace(newStore(t, 4, 2), 1, 5, 64); tr != nil || ho != nil {
		t.Fatal("empty store must snapshot to nil")
	}

	// Tracking more files must not migrate existing files between splits:
	// the class is a function of identity, not of position in the snapshot
	// (a positional split would leak previously-trained files into the
	// gate's holdout).
	for day := 6; day <= 8; day++ {
		var batch []agentserver.FileObservation
		for i := 0; i < 14; i++ {
			batch = append(batch, obsEntry(fid(i), float64(i+1), 1, 1))
		}
		observe(t, srv, batch...)
	}
	_, holdout2 := snapshotTrace(srv, 3, 4, 64)
	if holdout2 == nil {
		t.Fatal("expected a holdout after growth")
	}
	for _, f := range holdout2.Files {
		if f.SizeGB <= 10 && !wantHold[f.SizeGB] {
			t.Fatalf("holdout membership shifted after growth: size %v", f.SizeGB)
		}
	}
}

func fid(i int) string {
	return string([]byte{'f', byte('0' + i/10), byte('0' + i%10)})
}

// TestGapDimensionCountsPerFileObservedDays pins the drift gap unit: gaps
// are measured in a file's own observed days, not in global observe
// batches, so splitting one workload day across many observe batches (a
// common deployment shape) does not inflate them away from the trace-day
// baseline, and out-of-order batch arrival cannot produce negative gaps.
func TestGapDimensionCountsPerFileObservedDays(t *testing.T) {
	srv := newStore(t, 8, 1)
	// "f" is observed once per workload day, but each day arrives as three
	// observe batches ("f" rides in the first; the idle siblings advance the
	// server's batch counter without touching it). Active on days 1 and 3,
	// idle on day 2.
	observeDay := func(reads float64) {
		observe(t, srv, obsEntry("f", 1, reads, 0))
		observe(t, srv, obsEntry("sibling-a", 1, 0, 0))
		observe(t, srv, obsEntry("sibling-b", 1, 0, 0))
	}
	observeDay(5) // day 1: active
	observeDay(0) // day 2: idle
	observeDay(7) // day 3: active → gap = 2 observed days, not 6 batches
	var c agentserver.DriftCounts
	srv.DrainDrift(&c)
	// A gap of 2 lands in bucket 1 (edges 1.5 ≤ v < 2.5); a batch-counted
	// gap of 6 would land in bucket 3.
	if want := ([agentserver.DriftBuckets]uint64{1: 1}); c[dimGap] != want {
		t.Fatalf("gap histogram %v, want the single sample in bucket 1 (gap=2 days)", c[dimGap])
	}
}
