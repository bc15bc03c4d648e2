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
// The rings are the only per-file history in the process. A decision row
// packs the most recent histLen cells; an attached online learner
// (Server.AttachLearner) lengthens the rings to its training window and
// reads them through Server.SnapshotHistory, and ingest then also counts
// drift samples (drift.go) under the shard lock it already holds.
//
// Locking: one mutex per shard. /v1/observe fans the batch out with
// par.ForShards, so concurrent ingestion of a million-file batch never
// serializes on a global lock; /v1/plan decides each shard's dirty slots on
// its own goroutine and merges per-shard ID-sorted entry lists at the end.

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rl"
)

// DefaultShards is the tracked-state partition count when Config.Shards is
// zero. Sixteen keeps per-shard occupancy near 64k files at the
// million-file target while staying wider than any worker fan-out this
// repo's benchmarks run with.
const DefaultShards = 16

// planChunk is how many decision rows a shard packs and decides at a time
// during a plan: large enough that the GEMM dominates, small enough that
// one chunk's activations stay a few MB and the shard lock (held only while
// packing features) is released between chunks.
const planChunk = 4096

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

	size   []float64 // last observed size, GB
	reads  []float64 // ring buffers, ringLen cells per slot
	writes []float64
	head   []int32  // next ring write position per slot
	fill   []int32  // observed days per slot, capped at ringLen
	seq    []uint64 // observe-batch sequence of the slot's last entry (duplicate detection)

	// Learner state, nil unless attachLearner ran. drift counts the samples
	// ingested since the last Server.DrainDrift. idle is each slot's observed
	// days since its last day with any read or write, -1 before the first:
	// a per-file day count, so inter-access gaps stay in the trace-day unit
	// the drift baseline is seeded in however many observe batches a workload
	// day is split into, and cannot go negative when concurrent requests
	// land out of order.
	drift *DriftCounts
	idle  []int32

	tier    []uint8 // committed (current) tier per slot
	planned []uint8 // last plan decision per slot; == tier after commit

	dirtyBit []bool  // slot needs re-deciding on the next plan
	dirty    []int32 // slots with dirtyBit set; cap ≥ len(ids) so hot-path marks never grow it

	changedEpoch []uint64 // plan epoch that last changed the slot's tier
	epoch        uint64   // bumped once per plan over this shard

	order   []int32 // slots in ascending-ID order; valid when orderOK
	orderOK bool

	day   int64        // observe batches that touched this shard
	files atomic.Int64 // len(ids), readable without the lock

	// planMu serializes the snapshot→decide→commit→build sequence per
	// shard: concurrent /v1/plan requests interleave across shards but
	// never share one shard's plan scratch. Always acquired before mu.
	planMu sync.Mutex

	// Plan scratch, owned by the goroutine holding planMu.
	feats    *mat.Matrix
	tiers    []pricing.Tier
	decSlots []int32
	readBuf  []float64
	writeBuf []float64
}

func newShard(histLen int) *shard {
	return &shard{
		histLen:  histLen,
		ringLen:  histLen,
		index:    make(map[string]int32),
		readBuf:  make([]float64, histLen),
		writeBuf: make([]float64, histLen),
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
// order and advances the shard's day counter. idxs selects the batch
// positions owned by this shard; nil means the whole batch (the
// single-shard fast path). seq is the batch's sequence number: a slot
// already written under the same seq is a duplicate ID within the batch —
// the later entry wins (the earlier ring write is overwritten, the day
// advances once) and the duplicate is counted. Returns the duplicate count.
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
// first sight. Returns 1 when the entry duplicated an ID already seen in
// this batch (last-wins overwrite), else 0. Caller holds sh.mu.
func (sh *shard) ingestEntry(f *FileObservation, seq uint64, initial pricing.Tier) int {
	slot, ok := sh.index[f.ID]
	if !ok {
		slot = sh.addSlot(f.ID)
		sh.setInitialTier(slot, initial)
	}
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

// windowInto linearizes a slot's most recent histLen ring cells into
// oldest-first windows, left-padding a shorter history by repeating its
// first value — the same cold-start convention mdp.Env uses. Cells older
// than histLen never reach a decision row, so serving is bitwise the same
// at any ringLen.
//
//minicost:hotpath
func (sh *shard) windowInto(slot int32, rs, ws []float64) {
	n := min(int(sh.fill[slot]), sh.histLen)
	pad := sh.histLen - n
	sh.latestInto(slot, n, rs[pad:], ws[pad:])
	var r0, w0 float64
	if n > 0 {
		r0, w0 = rs[pad], ws[pad]
	}
	for i := 0; i < pad; i++ {
		rs[i], ws[i] = r0, w0
	}
}

// featureInto encodes one slot's feature row straight from the
// struct-of-arrays state — ring windows, size, tier one-hot — with the
// exact mdp.State encoding the training path uses. Caller holds sh.mu.
//
//minicost:hotpath
func (sh *shard) featureInto(slot int32, dst []float64) {
	sh.windowInto(slot, sh.readBuf, sh.writeBuf)
	st := mdp.State{
		ReadHistory:  sh.readBuf,
		WriteHistory: sh.writeBuf,
		SizeGB:       sh.size[slot],
		Tier:         pricing.Tier(sh.tier[slot]),
	}
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

// decide runs the batched policy over the snapshotted decision set in
// planChunk-row chunks: features are packed under the shard lock (the rings
// must not move), the forward pass runs with it released, so ingestion is
// never blocked behind inference.
func (sh *shard) decide(agent *rl.Agent, m int) {
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
		sh.feats = mat.EnsureShape(sh.feats, hi-lo, fd)
		sh.mu.Lock()
		sh.fillFeatures(sh.decSlots[lo:hi], sh.feats)
		sh.mu.Unlock()
		agent.DecideBatch(sh.feats, tiers[lo:hi], 1)
	}
}

// commit writes the decided tiers back as the slots' current tiers and
// caches them as the slots' plan entries. It bumps the shard's plan epoch
// (even when nothing was decided) and stamps changed slots with it, so
// entry building can report Changed without an O(slots) clear. A slot whose
// tier changed is re-queued on the dirty set: the tier one-hot is part of
// the feature row, so its cached decision no longer reflects its features —
// exactly what a full re-plan would re-decide. That re-queue is what keeps
// incremental plans bitwise equal to full ones. Returns the epoch and the
// number of tier transitions.
func (sh *shard) commit(m int) (epoch uint64, transitions int) {
	sh.mu.Lock()
	sh.epoch++
	epoch = sh.epoch
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
	return epoch, transitions
}

// buildEntries appends the shard's plan entries in ascending-ID order.
// Slots not re-decided this plan serve their cached assignment; Changed is
// true exactly for slots whose tier changed in the plan that produced
// epoch.
func (sh *shard) buildEntries(epoch uint64) []PlanEntry {
	sh.mu.Lock()
	sh.ensureOrder()
	out := make([]PlanEntry, 0, len(sh.ids))
	for _, slot := range sh.order {
		out = append(out, PlanEntry{
			ID:      sh.ids[slot],
			Tier:    pricing.Tier(sh.planned[slot]).String(),
			Changed: sh.changedEpoch[slot] == epoch,
		})
	}
	sh.mu.Unlock()
	return out
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
// ascending-ID list with a P-way cursor scan (P is small).
func mergeEntries(parts [][]PlanEntry) []PlanEntry {
	total := 0
	nonEmpty := 0
	for _, p := range parts {
		total += len(p)
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 1 {
		for _, p := range parts {
			if len(p) > 0 {
				return p
			}
		}
	}
	out := make([]PlanEntry, 0, total)
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
		out = append(out, parts[best][cursors[best]])
		cursors[best]++
	}
	return out
}
