package agentserver

// store.go is the serving state tier behind the HTTP surface (DESIGN.md
// §15): tracked-file state sharded across goroutine-owned partitions, each
// shard holding a contiguous struct-of-arrays feature store and a dirty set
// of files whose observed features changed since the last plan.
//
// Layout per shard: file ID → slot (map), then one flat array per field
// indexed by slot — size, ring-buffered read/write histories
// (slot*ringLen .. slot*ringLen+ringLen), head/fill cursors, current tier,
// cached plan decision, dirty bit. Observation ingest and feature packing
// walk these arrays without per-file pointer chasing or per-request
// marshalling; feature rows are encoded straight from the rings into the
// batch matrix that feeds rl.Agent.DecideBatch.
//
// Finding a slot: slots are numbered in first-sight order, and a client that
// sweeps its file list in the same order every day (serve-ingest's traffic)
// hands each shard its files in slot order. So ingest first tries the slot
// after the shard's previous entry (shard.next) with one ID compare, and
// probes the ID map only when that fails — the map's probe is a cache miss
// per file once a shard outgrows the cache, ≈70 % of ingest's CPU before
// the prediction. A miss costs the compare on top of the probe:
// BenchmarkObserve's shuffled row, where nearly every entry misses, prices
// it against the sweep row.
//
// The rings are the only per-file history in the process. A decision row
// packs the most recent histLen cells through mdp.State.FillHistory; an
// attached online learner (Server.AttachLearner) lengthens the rings to its
// training window and reads them through Server.SnapshotHistory, and ingest
// then also counts drift samples (drift.go) under the shard lock it already
// holds.
//
// Locking: one mutex per shard. /v1/observe fans the batch out with
// par.ForShards, so concurrent ingestion of a million-file batch never
// serializes on a global lock; /v1/plan decides each shard's dirty slots on
// its own goroutine and then patches the decided slots into the server's
// materialized plan (planView, at the end of this file), which is merged
// from per-shard ID-sorted entry lists only when the key set grew. Plans run
// one at a time under Server.planMu, taken before any shard's mu and never
// by ingest.

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/par"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
)

// DefaultShards is the tracked-state partition count when Config.Shards is
// zero. Sixteen keeps per-shard occupancy near 64k files at the
// million-file target while staying wider than any worker fan-out this
// repo's benchmarks run with.
const DefaultShards = 16

// planChunk is how many decision rows a shard packs and decides at a time
// during a plan. The network's activation workspace is sized by the largest
// chunk a pooled replica ever saw and stays pinned in the pool for the life
// of the daemon, so the chunk length is the daemon's resident inference
// memory: at 4096 rows it was 130 of 160 MB in use after one all-dirty plan
// of 65 536 files, for a steady state that decides ~67 rows. That memory is
// what the chunk bounds from above; from below it bounds how often the shard
// lock is taken — it is held only while a chunk's features are packed — and
// the per-call overhead of a forward pass. It buys no GEMM efficiency: the
// packed product walks its rows in 64-row panels whatever the batch length
// and a replica's weights are packed once per policy version, not per call,
// so a decided row costs the same from 64 rows up. A full plan of 32 768
// files at the paper's 14/128/128 on two cores takes 1.0–1.1 s at chunks of
// 64, 512 and 4096 rows alike (1.6–1.7 s at 512 before the panels, the fused
// front-end and the shared pack), with HeapSys 50, 75 and 323 MB. Decisions
// are bitwise row-independent, so the chunk length moves no output.
const planChunk = 512

// planBlockLen is how many consecutive plan entries share one cached run of
// wire bytes (planView.blocks). A plan re-encodes only the blocks holding an
// entry it changed: shorter blocks re-encode less per changed entry, longer
// ones leave fewer pieces to join into a body. At 1024 a block is ~52 kB,
// ~25 µs to encode, and a 65 536-file body is 64 copies.
const planBlockLen = 1024

// shard is one goroutine-owned partition of the tracked-file state. All
// slot-indexed fields are struct-of-arrays: growing appends to every array
// in addSlot; steady-state ingest and feature packing are flat array writes
// with no per-file allocation.
type shard struct {
	mu      sync.Mutex
	histLen int // cells a decision row packs
	ringLen int // cells kept per slot, ≥ histLen

	index map[string]int32 // file ID → slot
	ids   []string         // slot → file ID
	next  int32            // predicted slot of the next entry: the one after the last ingested

	size   []float64 // last observed size, GB
	reads  []float64 // ring buffers, ringLen cells per slot
	writes []float64
	head   []int32  // next ring write position per slot
	fill   []int32  // observed days per slot, capped at ringLen
	seq    []uint64 // observe-batch sequence of the slot's last entry (duplicate detection)

	// Learner state, nil unless attachLearner ran. drift counts the samples
	// ingested since the last Server.DrainDrift. idle is each slot's observed
	// days since its last day with any read or write, -1 before the first:
	// a per-file day count, so inter-access gaps stay in trace days however
	// many observe batches a workload day is split into, and cannot go
	// negative when concurrent requests land out of order.
	drift *DriftCounts
	idle  []int32

	tier    []uint8 // committed (current) tier per slot
	planned []uint8 // last plan decision per slot; == tier after commit

	dirtyBit []bool  // slot needs re-deciding on the next plan
	dirty    []int32 // slots with dirtyBit set; cap ≥ len(ids) so hot-path marks never grow it

	changedEpoch []uint64 // plan epoch (Server.planEpoch) that last changed the slot's tier

	order   []int32 // slots in ascending-ID order; valid when orderOK
	orderOK bool

	day   int64        // observe batches that touched this shard
	files atomic.Int64 // len(ids), readable without the lock

	// Plan scratch, owned by the plan in flight (Server.planMu): decSlots
	// and tiers hold the decided slots and their decisions from
	// snapshotDecisions until the plan view has been patched from them.
	feats    *mat.Matrix
	tiers    []pricing.Tier
	decSlots []int32
	readBuf  []float64 // a slot's latest ring cells, oldest first
	writeBuf []float64
	window   mdp.State // the decision window filled from them
}

func newShard(histLen int) *shard {
	return &shard{
		histLen:  histLen,
		ringLen:  histLen,
		index:    make(map[string]int32),
		readBuf:  make([]float64, histLen),
		writeBuf: make([]float64, histLen),
		window: mdp.State{
			ReadHistory:  make([]float64, histLen),
			WriteHistory: make([]float64, histLen),
		},
	}
}

// attachLearner lengthens the (still empty) shard's rings to ringLen cells
// and turns on drift sampling.
func (sh *shard) attachLearner(ringLen int) {
	sh.mu.Lock()
	sh.ringLen = ringLen
	sh.drift = new(DriftCounts)
	sh.mu.Unlock()
}

// HashID is the FNV-1a 64 hash of a file ID. The shard router and the online
// learner's train/holdout split both key on it, so each is a stable function
// of file identity alone.
func HashID(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// shardOf folds HashID onto a shard index; mask is shardCount-1 (shard
// counts are powers of two).
func shardOf(id string, mask uint32) uint32 {
	h := HashID(id)
	return uint32(h^(h>>32)) & mask
}

// addSlot grows every slot-indexed array by one. Caller holds sh.mu. The
// dirty list's capacity is kept ≥ len(ids) here so the hot-path dirty mark
// in ingestOne is a reslice, never an append. The shard keeps its own copy of
// the ID: the caller's may be a substring of a whole batch's ID arena
// (codec.go), which one kept ID would otherwise pin.
func (sh *shard) addSlot(id string) int32 {
	id = strings.Clone(id)
	slot := int32(len(sh.ids))
	sh.ids = append(sh.ids, id)
	sh.size = append(sh.size, 0)
	for i := 0; i < sh.ringLen; i++ {
		sh.reads = append(sh.reads, 0)
		sh.writes = append(sh.writes, 0)
	}
	sh.head = append(sh.head, 0)
	sh.fill = append(sh.fill, 0)
	sh.seq = append(sh.seq, 0)
	if sh.drift != nil {
		sh.idle = append(sh.idle, -1)
	}
	sh.tier = append(sh.tier, 0)
	sh.planned = append(sh.planned, 0)
	sh.dirtyBit = append(sh.dirtyBit, false)
	sh.changedEpoch = append(sh.changedEpoch, 0)
	sh.order = append(sh.order, slot)
	sh.orderOK = len(sh.ids) == 1 // a single slot is trivially sorted
	if cap(sh.dirty) < len(sh.ids) {
		grown := make([]int32, len(sh.dirty), 2*len(sh.ids))
		copy(grown, sh.dirty)
		sh.dirty = grown
	}
	sh.index[id] = slot
	sh.files.Store(int64(len(sh.ids)))
	return slot
}

// setInitialTier seeds a fresh slot's tier. Caller holds sh.mu.
func (sh *shard) setInitialTier(slot int32, t pricing.Tier) {
	sh.tier[slot] = uint8(t)
	sh.planned[slot] = uint8(t)
}

// ingestBatch applies this shard's entries of one observe batch in batch
// order and advances the shard's day counter; Observe calls it only for a
// shard the batch touches. idxs selects the batch positions owned by this
// shard; nil means the whole batch (the single-shard fast path). seq is the
// batch's sequence number: a slot already written under the same seq is a
// duplicate ID within the batch — the later entry wins (the earlier ring
// write is overwritten, the day advances once) and the duplicate is
// counted. Returns the duplicate count.
func (sh *shard) ingestBatch(files []FileObservation, idxs []int32, seq uint64, initial pricing.Tier) int {
	sh.mu.Lock()
	dups := 0
	if idxs == nil {
		for i := range files {
			dups += sh.ingestEntry(&files[i], seq, initial)
		}
	} else {
		for _, bi := range idxs {
			dups += sh.ingestEntry(&files[bi], seq, initial)
		}
	}
	sh.day++
	sh.mu.Unlock()
	return dups
}

// ingestEntry routes one observation to its slot, creating the slot on
// first sight. The predicted slot, sh.next (the file comment says why), is
// tried first and the ID map is read only when that slot holds another ID;
// IDs are unique per shard, so a hit is the slot the map holds. Returns 1
// when the entry duplicated an ID already seen in this batch (last-wins
// overwrite), else 0. Caller holds sh.mu.
func (sh *shard) ingestEntry(f *FileObservation, seq uint64, initial pricing.Tier) int {
	slot := sh.next
	if int(slot) >= len(sh.ids) || sh.ids[slot] != f.ID {
		var ok bool
		slot, ok = sh.index[f.ID]
		if !ok {
			slot = sh.addSlot(f.ID)
			sh.setInitialTier(slot, initial)
		}
	}
	sh.next = slot + 1
	if sh.seq[slot] == seq {
		// The drift counts keep the first entry's sample — one sample per
		// file per batch either way.
		sh.overwriteToday(slot, f.SizeGB, f.Reads, f.Writes)
		return 1
	}
	sh.seq[slot] = seq
	if sh.drift != nil {
		sh.sampleDrift(slot, f)
	}
	sh.ingestOne(slot, f.SizeGB, f.Reads, f.Writes)
	return 0
}

// sampleDrift counts one observation's drift samples and advances the
// slot's idle-day count. Caller holds sh.mu.
//
//minicost:hotpath
func (sh *shard) sampleDrift(slot int32, f *FileObservation) {
	sh.drift.Observe(DriftReads, f.Reads)
	sh.drift.Observe(DriftWrites, f.Writes)
	sh.drift.Observe(DriftSize, f.SizeGB)
	idle := sh.idle[slot]
	if idle >= 0 {
		idle++
	}
	if f.Reads > 0 || f.Writes > 0 {
		if idle > 0 {
			sh.drift.Observe(DriftGap, float64(idle))
		}
		idle = 0
	}
	sh.idle[slot] = idle
}

// ingestOne appends one day's measurement to a slot's ring buffers and
// marks the slot dirty — the shard ingest kernel on the /v1/observe hot
// path. The dirty mark is a reslice into pre-grown capacity (addSlot
// maintains cap(dirty) ≥ len(ids)), so the steady state is allocation-free.
//
//minicost:hotpath
func (sh *shard) ingestOne(slot int32, sizeGB, reads, writes float64) {
	base := int(slot) * sh.ringLen
	h := int(sh.head[slot])
	sh.reads[base+h] = reads
	sh.writes[base+h] = writes
	h++
	if h == sh.ringLen {
		h = 0
	}
	sh.head[slot] = int32(h)
	if int(sh.fill[slot]) < sh.ringLen {
		sh.fill[slot]++
	}
	sh.size[slot] = sizeGB
	if !sh.dirtyBit[slot] {
		sh.dirtyBit[slot] = true
		n := len(sh.dirty)
		sh.dirty = sh.dirty[:n+1]
		sh.dirty[n] = slot
	}
}

// overwriteToday replaces the slot's most recent ring entry — the
// last-wins path for duplicate IDs within one observe batch. The slot is
// already dirty from the first write. Caller holds sh.mu.
func (sh *shard) overwriteToday(slot int32, sizeGB, reads, writes float64) {
	base := int(slot) * sh.ringLen
	h := int(sh.head[slot]) - 1
	if h < 0 {
		h = sh.ringLen - 1
	}
	sh.reads[base+h] = reads
	sh.writes[base+h] = writes
	sh.size[slot] = sizeGB
}

// latestInto copies the slot's most recent n ring cells, oldest first, into
// rs[:n] and ws[:n]. Caller holds sh.mu and guarantees n <= fill[slot].
//
//minicost:hotpath
func (sh *shard) latestInto(slot int32, n int, rs, ws []float64) {
	base := int(slot) * sh.ringLen
	// head is the next write position: the newest cell is head-1, the oldest
	// of the latest n is head-n (mod ringLen).
	start := int(sh.head[slot]) - n
	if start < 0 {
		start += sh.ringLen
	}
	first := min(n, sh.ringLen-start) // cells before the ring wraps
	copy(rs, sh.reads[base+start:base+start+first])
	copy(rs[first:n], sh.reads[base:])
	copy(ws, sh.writes[base+start:base+start+first])
	copy(ws[first:n], sh.writes[base:])
}

// featureInto encodes one slot's feature row straight from the
// struct-of-arrays state with the exact mdp.State encoding the training path
// uses: the ring's latest histLen cells (fewer while the slot is young) go
// through mdp.State.FillHistory, the decision rule's one window and clamp,
// then size and tier. The plan that follows a day's observe decides the
// next day, so the ring holds exactly the days before it; cells older than
// histLen never reach a row, so serving is bitwise the same at any ringLen.
// Caller holds sh.mu.
//
//minicost:hotpath
func (sh *shard) featureInto(slot int32, dst []float64) {
	n := min(int(sh.fill[slot]), sh.histLen)
	sh.latestInto(slot, n, sh.readBuf, sh.writeBuf)
	st := &sh.window
	st.FillHistory(sh.readBuf[:n], sh.writeBuf[:n], nil, n)
	st.SizeGB = sh.size[slot]
	st.Tier = pricing.Tier(sh.tier[slot])
	st.FeaturesInto(dst)
}

// fillFeatures packs the feature rows of the given slots into feats — the
// shard plan kernel between the dirty-set snapshot and the batched forward
// pass. Caller holds sh.mu.
//
//minicost:hotpath
func (sh *shard) fillFeatures(slots []int32, feats *mat.Matrix) {
	for i, slot := range slots {
		sh.featureInto(slot, feats.Row(i))
	}
}

// snapshotDecisions fixes the set of slots this plan will re-decide — the
// dirty set, or every slot when full — into sh.decSlots and clears the
// dirty set. Slots re-dirtied by observations that land while the decision
// is in flight simply queue for the next plan.
func (sh *shard) snapshotDecisions(full bool) int {
	sh.mu.Lock()
	var m int
	if full {
		m = len(sh.ids)
		if cap(sh.decSlots) < m {
			sh.decSlots = make([]int32, m)
		}
		sh.decSlots = sh.decSlots[:m]
		for i := range sh.decSlots {
			sh.decSlots[i] = int32(i)
		}
	} else {
		m = len(sh.dirty)
		if cap(sh.decSlots) < m {
			sh.decSlots = make([]int32, m)
		}
		sh.decSlots = sh.decSlots[:m]
		copy(sh.decSlots, sh.dirty)
	}
	for _, slot := range sh.dirty {
		sh.dirtyBit[slot] = false
	}
	sh.dirty = sh.dirty[:0]
	sh.mu.Unlock()
	return m
}

// decide runs the serving policy over the snapshotted decision set in
// planChunk-row chunks. With a replica, features are packed under the shard
// lock (the rings must not move) and the batched forward pass runs with it
// released, so ingestion is never blocked behind inference. Without one
// (Greedy serves) each chunk is decided under the lock by greedyInto.
func (sh *shard) decide(agent *rl.Replica, model *costmodel.Model, m int) {
	if m == 0 {
		return
	}
	fd := mdp.FeatureDim(sh.histLen)
	if cap(sh.tiers) < m {
		sh.tiers = make([]pricing.Tier, m)
	}
	tiers := sh.tiers[:m]
	for lo := 0; lo < m; lo += planChunk {
		hi := lo + planChunk
		if hi > m {
			hi = m
		}
		if agent == nil {
			sh.mu.Lock()
			sh.greedyInto(model, sh.decSlots[lo:hi], tiers[lo:hi])
			sh.mu.Unlock()
			continue
		}
		sh.feats = mat.EnsureShape(sh.feats, hi-lo, fd)
		sh.mu.Lock()
		sh.fillFeatures(sh.decSlots[lo:hi], sh.feats)
		sh.mu.Unlock()
		agent.DecideBatch(sh.feats, tiers[lo:hi], 1)
	}
}

// greedyInto decides slots with policy.GreedyStep into dst: each file's
// committed tier, last observed size and newest ring cell — the day before
// the one the plan decides, the day Greedy.Assign prices it on. Caller holds
// sh.mu.
//
//minicost:hotpath
func (sh *shard) greedyInto(model *costmodel.Model, slots []int32, dst []pricing.Tier) {
	for i, slot := range slots {
		newest := int(slot)*sh.ringLen + (int(sh.head[slot])+sh.ringLen-1)%sh.ringLen
		c := model.FileCoeffs(sh.size[slot])
		dst[i] = policy.GreedyStep(&c, pricing.Tier(sh.tier[slot]), sh.reads[newest], sh.writes[newest])
	}
}

// commit writes the decided tiers back as the slots' current tiers and
// caches them as the slots' plan decisions. Changed slots are stamped with
// the plan's epoch, so an entry can report Changed without an O(slots)
// clear. A slot whose tier changed is re-queued on the dirty set: the tier
// one-hot is part of the feature row, so its cached decision no longer
// reflects its features — exactly what a full re-plan would re-decide. That
// re-queue is what keeps incremental plans bitwise equal to full ones.
// Returns the number of tier transitions.
func (sh *shard) commit(m int, epoch uint64) (transitions int) {
	sh.mu.Lock()
	for i := 0; i < m; i++ {
		slot := sh.decSlots[i]
		nt := uint8(sh.tiers[i])
		if nt != sh.tier[slot] {
			transitions++
			sh.changedEpoch[slot] = epoch
			if !sh.dirtyBit[slot] {
				sh.dirtyBit[slot] = true
				sh.dirty = append(sh.dirty, slot)
			}
		}
		sh.tier[slot] = nt
		sh.planned[slot] = nt
	}
	sh.mu.Unlock()
	return transitions
}

// entryOf is slot's plan entry as of the plan with the given epoch: its
// cached decision, Changed exactly when that plan changed its tier. Caller
// holds sh.mu.
func (sh *shard) entryOf(slot int32, epoch uint64) PlanEntry {
	return PlanEntry{
		ID:      sh.ids[slot],
		Tier:    pricing.Tier(sh.planned[slot]).String(),
		Changed: sh.changedEpoch[slot] == epoch,
	}
}

// buildEntries returns the shard's plan entries in ascending-ID order and,
// beside them, the slot each belongs to. It walks every slot: the plan
// view's constructor (and the tests' oracle for the view), not the per-plan
// path.
func (sh *shard) buildEntries(epoch uint64) ([]PlanEntry, []int32) {
	sh.mu.Lock()
	sh.ensureOrder()
	out := make([]PlanEntry, 0, len(sh.ids))
	for _, slot := range sh.order {
		out = append(out, sh.entryOf(slot, epoch))
	}
	slots := slices.Clone(sh.order) // ingest appends to order and re-sorts it in place
	sh.mu.Unlock()
	return out, slots
}

// ensureOrder re-sorts the slot order after insertions. Observations to
// existing files never invalidate it, so steady-state plans skip the sort.
// Caller holds sh.mu.
func (sh *shard) ensureOrder() {
	if sh.orderOK {
		return
	}
	ids := sh.ids
	order := sh.order
	sort.Slice(order, func(i, j int) bool { return ids[order[i]] < ids[order[j]] })
	sh.orderOK = true
}

// markAllDirty queues every slot for re-decision — required when the
// serving policy changes (UpdateAgent), since cached decisions were made by
// the previous weights.
func (sh *shard) markAllDirty() {
	sh.mu.Lock()
	sh.dirty = sh.dirty[:0]
	for slot := range sh.dirtyBit {
		sh.dirtyBit[slot] = true
		sh.dirty = append(sh.dirty, int32(slot))
	}
	sh.mu.Unlock()
}

// dirtyCount returns the shard's pending-decision count.
func (sh *shard) dirtyCount() int {
	sh.mu.Lock()
	n := len(sh.dirty)
	sh.mu.Unlock()
	return n
}

// mergeEntries merges per-shard ascending-ID entry lists into one global
// ascending-ID list with a P-way cursor scan — P string compares per entry,
// which is why it builds the plan view and no longer runs per plan.
// slots[p][k] is the slot of parts[p][k]; the index returned maps it back:
// pos[p][slot] is where shard p's slot landed in the merged list.
func mergeEntries(parts [][]PlanEntry, slots [][]int32) (out []PlanEntry, pos [][]int32) {
	total := 0
	pos = make([][]int32, len(parts))
	for p := range parts {
		total += len(parts[p])
		pos[p] = make([]int32, len(parts[p]))
	}
	out = make([]PlanEntry, 0, total)
	cursors := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for p := range parts {
			if cursors[p] >= len(parts[p]) {
				continue
			}
			if best < 0 || parts[p][cursors[p]].ID < parts[best][cursors[best]].ID {
				best = p
			}
		}
		pos[best][slots[best][cursors[best]]] = int32(len(out))
		out = append(out, parts[best][cursors[best]])
		cursors[best]++
	}
	return out, pos
}

// planView is the plan as a materialized view: every tracked file's entry
// in ascending-ID order, where each shard's slots sit in it, and the wire
// bytes of the entries in blocks of planBlockLen. A plan costs the store
// O(decided): patch rewrites the entries of the slots the plan decided and
// encode re-encodes the blocks whose bytes that changed; everything else is
// served as the previous plan left it. Only a plan that finds a slot added
// since the view was built pays O(N), in rebuild. Owned by the holder of
// Server.planMu.
type planView struct {
	entries []PlanEntry
	pos     [][]int32 // pos[shard][slot] → index into entries
	flagged []int32   // indexes of the entries whose Changed is set
	blocks  [][]byte  // blocks[b] = appendPlanEntries(entries[b*planBlockLen:][:planBlockLen])
	stale   []bool    // blocks[b] no longer matches its entries
}

// current reports whether the view still covers every slot of every shard.
// Slots are never removed, so a count is enough.
func (v *planView) current(shards []*shard) bool {
	if len(v.pos) != len(shards) {
		return false
	}
	for si, sh := range shards {
		if int(sh.files.Load()) != len(v.pos[si]) {
			return false
		}
	}
	return true
}

// rebuild constructs the view from scratch out of the shards' state as of
// the plan with the given epoch. Every block is left stale.
func (v *planView) rebuild(shards []*shard, workers int, epoch uint64) {
	parts := make([][]PlanEntry, len(shards))
	slots := make([][]int32, len(shards))
	par.ForShards(len(shards), workers, func(si int) {
		parts[si], slots[si] = shards[si].buildEntries(epoch)
	})
	v.entries, v.pos = mergeEntries(parts, slots)
	v.flagged = v.flagged[:0]
	for i := range v.entries {
		if v.entries[i].Changed {
			v.flagged = append(v.flagged, int32(i))
		}
	}
	// Entries are never removed, so the blocks only grow in number; the
	// buffers of those the view already had are reused.
	for len(v.blocks)*planBlockLen < len(v.entries) {
		v.blocks = append(v.blocks, nil)
		v.stale = append(v.stale, false)
	}
	for b := range v.stale {
		v.stale[b] = true
	}
}

// set writes entry i's tier and Changed flag — an entry's ID never changes —
// and marks its block stale if that changed what the entry encodes to.
func (v *planView) set(i int32, tier string, changed bool) {
	e := &v.entries[i]
	if e.Tier != tier || e.Changed != changed {
		e.Tier, e.Changed = tier, changed
		v.stale[i/planBlockLen] = true
	}
	if changed {
		v.flagged = append(v.flagged, i)
	}
}

// unflag clears Changed on the entries the previous plan set it on: the flag
// means "changed by this plan". (commit re-queues every slot it flags, so the
// next plan re-decides and patches those entries anyway; the view does not
// lean on that.)
func (v *planView) unflag() {
	flagged := v.flagged
	v.flagged = v.flagged[:0]
	for _, i := range flagged {
		v.set(i, v.entries[i].Tier, false)
	}
}

// patch rewrites the entries of the m slots shard si decided in the plan
// with the given epoch. The view must be current.
func (v *planView) patch(si int, sh *shard, m int, epoch uint64) {
	pos := v.pos[si]
	sh.mu.Lock()
	for _, slot := range sh.decSlots[:m] {
		e := sh.entryOf(slot, epoch)
		v.set(pos[slot], e.Tier, e.Changed)
	}
	sh.mu.Unlock()
}

// encode re-encodes the stale blocks into their own buffers and returns how
// many there were.
func (v *planView) encode() int {
	n := 0
	for b, stale := range v.stale {
		if !stale {
			continue
		}
		lo := b * planBlockLen
		hi := min(lo+planBlockLen, len(v.entries))
		v.blocks[b] = appendPlanEntries(v.blocks[b][:0], v.entries[lo:hi])
		v.stale[b] = false
		n++
	}
	return n
}
