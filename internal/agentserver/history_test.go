package agentserver

import (
	"reflect"
	"sync"
	"testing"

	"minicost/internal/pricing"
)

// TestAttachLearner pins the one ring-sizing entry point: it lengthens every
// shard's rings and turns drift sampling on, but only on a server that
// tracks nothing yet and only to a window a decision row still fits in.
func TestAttachLearner(t *testing.T) {
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachLearner(s.histLen - 1); err == nil {
		t.Fatal("window shorter than the decision window accepted")
	}
	if err := s.AttachLearner(3 * s.histLen); err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= 3*s.histLen+2; d++ {
		if _, err := s.Observe(&ObserveRequest{Files: []FileObservation{obsv("a", float64(d)), obsv("b", 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	h := s.SnapshotHistory(1, 16)
	if h.Days != 3*s.histLen || len(h.IDs) != 2 {
		t.Fatalf("snapshot of %d files over %d days, want 2 over %d", len(h.IDs), h.Days, 3*s.histLen)
	}
	var c DriftCounts
	s.DrainDrift(&c)
	reads := uint64(0)
	for _, n := range c[DriftReads] {
		reads += n
	}
	if want := uint64(2 * (3*s.histLen + 2)); reads != want {
		t.Fatalf("drained %d read samples, want %d (one per file per batch)", reads, want)
	}
	// Drained means zeroed.
	c = DriftCounts{}
	s.DrainDrift(&c)
	if c != (DriftCounts{}) {
		t.Fatalf("second drain not empty: %v", c)
	}
	// Files are tracked now: there is no re-layout, so a second attach fails
	// and leaves the store as it was.
	if err := s.AttachLearner(4 * s.histLen); err == nil {
		t.Fatal("AttachLearner accepted with files already tracked")
	}
	if got := s.SnapshotHistory(1, 16).Days; got != 3*s.histLen {
		t.Fatalf("failed attach changed the ring length: %d days", got)
	}

	// Without a learner the rings stay at the decision window.
	plain, err := New(testAgent(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range plain.shards {
		if sh.ringLen != plain.histLen || sh.drift != nil {
			t.Fatalf("learner-less shard: ringLen %d drift %v", sh.ringLen, sh.drift)
		}
	}
}

// TestLearnerReadsIndependentOfFanout pins the determinism the learner rests
// on: batches big enough to fan out across shard goroutines leave the same
// drift counts and the same history snapshot at any worker count, because
// samples are integer counts taken under each shard's own lock.
func TestLearnerReadsIndependentOfFanout(t *testing.T) {
	run := func(workers int) (DriftCounts, *History) {
		s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AttachLearner(2 * s.histLen); err != nil {
			t.Fatal(err)
		}
		var c DriftCounts
		for d := 0; d < 5; d++ {
			files := make([]FileObservation, 2*ingestFanoutThreshold)
			for i := range files {
				files[i] = obsv("f"+itoa(i), float64((i*7+d*13)%900)*float64((i+d)%3))
			}
			if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
				t.Fatal(err)
			}
			s.DrainDrift(&c)
		}
		return c, s.SnapshotHistory(2, 1000)
	}
	c1, h1 := run(1)
	c4, h4 := run(4)
	if c1 != c4 {
		t.Fatalf("drift counts differ across fan-out widths:\n%v\n%v", c1, c4)
	}
	if c1[DriftGap] == ([DriftBuckets]uint64{}) {
		t.Fatal("degenerate test: no gap samples")
	}
	if len(h1.IDs) != 1000 || !reflect.DeepEqual(h1, h4) {
		t.Fatalf("history snapshots differ across fan-out widths (%d vs %d files)", len(h1.IDs), len(h4.IDs))
	}
}

// TestSnapshotDuringObserveAndPlan snapshots for an epoch, and drains drift
// counts, while observe and plan traffic hammers the same shards; run under
// -race by `make check`. Every snapshot must be internally aligned.
func TestSnapshotDuringObserveAndPlan(t *testing.T) {
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachLearner(2 * s.histLen); err != nil {
		t.Fatal(err)
	}
	feedWeek(t, s, 200)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					files := make([]FileObservation, 60)
					for j := range files {
						// IDs past 200 keep the population growing mid-snapshot.
						files[j] = obsv("f"+itoa((w*37+i*11+j)%260), float64(i+j))
					}
					if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := s.BuildPlan(i%5 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		h := s.SnapshotHistory(7, 150)
		if len(h.IDs) == 0 || len(h.IDs) > 150 || h.Days < 7 || h.Days > 2*s.histLen {
			t.Fatalf("snapshot %d: %d files over %d days", i, len(h.IDs), h.Days)
		}
		for f := range h.IDs {
			if len(h.Reads[f]) != h.Days || len(h.Writes[f]) != h.Days || h.SizeGB[f] <= 0 {
				t.Fatalf("snapshot %d: file %q misaligned", i, h.IDs[f])
			}
		}
		var c DriftCounts
		s.DrainDrift(&c)
	}
	wg.Wait()
}

// TestSnapshotHistoryCapsTotal pins SnapshotHistory's cap on the total, also
// below one file per shard: the shares are maxFiles split over the shards,
// the remainder to the lowest ones, not at least one file each.
func TestSnapshotHistoryCapsTotal(t *testing.T) {
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	feedWeek(t, s, 400)
	for _, limit := range []int{1, 4, 15, 16, 20, 100} {
		h := s.SnapshotHistory(1, limit)
		if len(h.IDs) != limit {
			t.Errorf("SnapshotHistory(1, %d) copied %d files", limit, len(h.IDs))
		}
	}
}
