package agentserver

import (
	"math"
	"slices"
	"strconv"
	"testing"

	"minicost/internal/pricing"
	"minicost/internal/rng"
)

// checkIndex asserts that every shard's ID map and slot array agree:
// index[ids[slot]] == slot for every slot, and nothing else is indexed.
func checkIndex(t *testing.T, s *Server) {
	t.Helper()
	for si, sh := range s.shards {
		sh.mu.Lock()
		if len(sh.index) != len(sh.ids) {
			t.Fatalf("shard %d indexes %d IDs over %d slots", si, len(sh.index), len(sh.ids))
		}
		for slot, id := range sh.ids {
			if got, ok := sh.index[id]; !ok || got != int32(slot) {
				t.Fatalf("shard %d: index[%q] = %d, %v; its slot is %d", si, id, got, ok, slot)
			}
		}
		sh.mu.Unlock()
	}
}

// checkCursor asserts that each shard the batch touched predicts the slot
// after its last entry's.
func checkCursor(t *testing.T, s *Server, batch []FileObservation) {
	t.Helper()
	last := map[uint32]string{}
	for _, f := range batch {
		last[shardOf(f.ID, s.shardMask)] = f.ID
	}
	for si, id := range last {
		sh := s.shards[si]
		sh.mu.Lock()
		want, next := sh.index[id]+1, sh.next
		sh.mu.Unlock()
		if next != want {
			t.Fatalf("shard %d predicts slot %d after %q, want %d", si, next, id, want)
		}
	}
}

// predictedHits counts the entries of files that ingest would find at
// their shard's predicted slot, simulated from s's state before the batch:
// per shard, the slot after the previous entry's, with unseen IDs numbered
// on in first-sight order. An unseen ID's first entry never hits: its slot
// does not exist yet when it is predicted.
func predictedHits(s *Server, files []FileObservation) int {
	next := make([]int32, len(s.shards))
	added := make([]map[string]int32, len(s.shards))
	for si, sh := range s.shards {
		sh.mu.Lock()
		next[si] = sh.next
		sh.mu.Unlock()
		added[si] = map[string]int32{}
	}
	hits := 0
	for _, f := range files {
		si := shardOf(f.ID, s.shardMask)
		sh := s.shards[si]
		sh.mu.Lock()
		slot, ok := sh.index[f.ID]
		n := int32(len(sh.ids))
		sh.mu.Unlock()
		if !ok {
			slot, ok = added[si][f.ID]
		}
		if ok && slot == next[si] {
			hits++
		}
		if !ok {
			slot = n + int32(len(added[si]))
			added[si][f.ID] = slot
		}
		next[si] = slot + 1
	}
	return hits
}

// mapOnlyOrder returns files reordered so that ingest into s finds no
// entry at its predicted slot and every slot comes from the ID map: tracked
// IDs in descending slot order, then unseen IDs; entries of one ID keep
// their relative order, so last-wins picks the same value.
func mapOnlyOrder(s *Server, files []FileObservation) []FileObservation {
	type ranked struct {
		slot int32 // -1 for an unseen ID
		f    FileObservation
	}
	rs := make([]ranked, len(files))
	for i, f := range files {
		slot, ok := s.shards[shardOf(f.ID, s.shardMask)].index[f.ID]
		if !ok {
			slot = -1
		}
		rs[i] = ranked{slot, f}
	}
	slices.SortStableFunc(rs, func(a, b ranked) int { return int(b.slot - a.slot) })
	out := make([]FileObservation, len(rs))
	for i := range rs {
		out[i] = rs[i].f
	}
	return out
}

// TestPredictedSlotEqualsIndexLookup feeds twin servers the same days, each
// split into the same batches. The first takes every batch in the order
// under test; the reference takes each batch in mapOnlyOrder, so its
// ingest never takes a predicted slot. The twins must agree on every
// answer, plan, history row and counter, and both must keep their ID maps
// in step with their slots after every batch.
func TestPredictedSlotEqualsIndexLookup(t *testing.T) {
	const days, pop = 5, 2400
	ids := func(lo, hi int) []string {
		out := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, "file-"+strconv.Itoa(i))
		}
		return out
	}
	// Each order turns a day's list (the client's file list, which may
	// grow) into the entries it posts.
	type order struct {
		name string
		day  func(r *rng.RNG, d int, list *[]string) []string
		// sweepLike orders keep most entries on their predicted slot; the
		// others miss it nearly always.
		sweepLike bool
	}
	orders := []order{
		{"sweep", func(r *rng.RNG, d int, list *[]string) []string { return *list }, true},
		{"reversed", func(r *rng.RNG, d int, list *[]string) []string {
			// Day 0 creates the slots in list order; every later day posts
			// the list backwards.
			out := slices.Clone(*list)
			if d > 0 {
				slices.Reverse(out)
			}
			return out
		}, false},
		{"shuffled", func(r *rng.RNG, d int, list *[]string) []string {
			out := slices.Clone(*list)
			r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		}, false},
		{"duplicates", func(r *rng.RNG, d int, list *[]string) []string {
			// One in twenty files is posted a second time later in the day.
			out := slices.Clone(*list)
			for i, id := range *list {
				if r.Intn(20) == 0 {
					at := i + 1 + r.Intn(len(out)-i)
					out = slices.Insert(out, at, id)
				}
			}
			return out
		}, true},
		{"new-mid-sweep", func(r *rng.RNG, d int, list *[]string) []string {
			// Forty new files a day join the list at random places; the
			// sweep posts the whole list.
			for _, id := range ids(pop+40*d, pop+40*(d+1)) {
				at := r.Intn(len(*list) + 1)
				*list = slices.Insert(*list, at, id)
			}
			return *list
		}, true},
	}
	for _, shards := range []int{1, 4, 16} {
		for _, o := range orders {
			t.Run(o.name+"/shards="+strconv.Itoa(shards), func(t *testing.T) {
				server := func() *Server {
					s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					if err := s.AttachLearner(2 * s.histLen); err != nil {
						t.Fatal(err)
					}
					return s
				}
				got, ref := server(), server()
				r := rng.New(uint64(4800 + shards))
				list := ids(0, pop)
				hits, entries := 0, 0
				for d := 0; d < days; d++ {
					day := o.day(r, d, &list)
					files := make([]FileObservation, len(day))
					for i, id := range day {
						files[i] = FileObservation{ID: id, SizeGB: 0.05 + r.Float64(), Reads: math.Floor(r.Float64() * 500), Writes: math.Floor(r.Float64() * 5)}
					}
					// Even days are one batch (the fan-out path), odd days
					// three (the serial one).
					parts := 1 + 2*(d%2)
					for p := 0; p < parts; p++ {
						batch := files[p*len(files)/parts : (p+1)*len(files)/parts]
						if d > 0 {
							hits += predictedHits(got, batch)
							entries += len(batch)
						}
						refBatch := mapOnlyOrder(ref, batch)
						if h := predictedHits(ref, refBatch); h != 0 {
							t.Fatalf("day %d: the reference order takes %d predicted slots", d, h)
						}
						a, err := got.Observe(&ObserveRequest{Files: batch})
						if err != nil {
							t.Fatal(err)
						}
						b, err := ref.Observe(&ObserveRequest{Files: refBatch})
						if err != nil {
							t.Fatal(err)
						}
						if *a != *b {
							t.Fatalf("day %d batch %d: answered %+v, reference %+v", d, p, *a, *b)
						}
						checkIndex(t, got)
						checkIndex(t, ref)
						checkCursor(t, got, batch)
					}
					pa, err := got.BuildPlan(true)
					if err != nil {
						t.Fatal(err)
					}
					pb, err := ref.BuildPlan(true)
					if err != nil {
						t.Fatal(err)
					}
					if planKey(pa) != planKey(pb) {
						t.Fatalf("day %d: full plans differ", d)
					}
				}
				// Sweep-like orders keep most entries on the predicted slot;
				// the others must still be right when nearly all miss.
				if share := float64(hits) / float64(entries); o.sweepLike != (share > 0.5) {
					t.Errorf("%d of %d entries after day 0 on their predicted slot", hits, entries)
				}
				rows := func(s *Server) map[string][3][]float64 {
					h := s.SnapshotHistory(1, math.MaxInt32)
					out := make(map[string][3][]float64, len(h.IDs))
					for i, id := range h.IDs {
						out[id] = [3][]float64{{h.SizeGB[i]}, h.Reads[i], h.Writes[i]}
					}
					return out
				}
				ra, rb := rows(got), rows(ref)
				if len(ra) != len(rb) || len(ra) != got.TrackedFiles() {
					t.Fatalf("history rows %d and %d for %d files", len(ra), len(rb), got.TrackedFiles())
				}
				for id, a := range ra {
					b := rb[id]
					for k := range a {
						if !slices.Equal(a[k], b[k]) {
							t.Fatalf("%s: history %v, reference %v", id, a, b)
						}
					}
				}
				sa, sb := got.Stats(), ref.Stats()
				sa.LastPlanMS, sb.LastPlanMS = 0, 0
				sa.Replicas, sb.Replicas = 0, 0
				if *sa != *sb {
					t.Fatalf("stats %+v, reference %+v", *sa, *sb)
				}
				var da, db DriftCounts
				got.DrainDrift(&da)
				ref.DrainDrift(&db)
				if da != db {
					t.Fatal("drift counts differ")
				}
			})
		}
	}
}

// TestShardDayCountsTouchingBatches pins what MinShardDay and MaxShardDay
// count: the observe batches that carried an entry for the shard, so a
// batch whose files all live in one shard advances that shard alone — on
// the serial path and on the fan-out one.
func TestShardDayCountsTouchingBatches(t *testing.T) {
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var files []FileObservation
	for i := 0; len(files) < ingestFanoutThreshold; i++ {
		if id := "f" + itoa(i); shardOf(id, s.shardMask) == 2 {
			files = append(files, obsv(id, float64(i)))
		}
	}
	for _, c := range []struct {
		batch    []FileObservation
		min, max int64
	}{
		{files[:3], 0, 1},
		{files, 0, 2},
	} {
		if _, err := s.Observe(&ObserveRequest{Files: c.batch}); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.MinShardDay != c.min || st.MaxShardDay != c.max {
			t.Fatalf("after a %d-file batch in one shard: shard days min=%d max=%d, want %d/%d",
				len(c.batch), st.MinShardDay, st.MaxShardDay, c.min, c.max)
		}
	}
}
