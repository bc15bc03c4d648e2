// Package agentserver exposes a trained MiniCost agent as an HTTP service —
// the deployment shape the paper describes in §4.2: "a reinforcement
// learning agent, which is responsible for generating the data storage type
// assignment plan periodically, is deployed on a server belonging to the
// web application. It monitors the request frequencies, changes of data
// storage types and the change of data size."
//
// The service ingests daily per-file observations (POST /v1/observe),
// maintains each file's trailing frequency history in a sharded
// struct-of-arrays store (store.go), and produces tier assignment plans
// (GET /v1/plan) with the greedy policy of the loaded agent — or, on a
// server built by NewGreedy, with policy.Greedy until an agent is swapped
// in. Plans are
// incremental by default: only files whose observed features changed since
// the last plan are re-decided; the rest serve their cached assignment
// (GET /v1/plan?full=1 forces a full re-decision — bitwise-identical, just
// slower). The plan itself is a materialized view the server maintains — the
// ID-ordered entries and their wire bytes in blocks — and each plan patches
// only what it decided, so a steady-state plan costs the store O(decided),
// not O(tracked). Everything is stdlib net/http. The two per-file payloads —
// the observe body in, the plan out — go through the schema-specific codec in
// codec.go; encoding/json writes the small fixed-size answers and serves the
// codec as its oracle and cold-token fallback.
package agentserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minicost/internal/costmodel"
	"minicost/internal/obs"
	"minicost/internal/par"
	"minicost/internal/pricing"
	"minicost/internal/rl"
)

// MaxObserveBytes is the default cap on a /v1/observe request body; larger
// payloads are rejected with 413 before decoding. At ~100 bytes per file
// observation this admits batches of ~80k files per day — raise it through
// Config.MaxObserveBytes (minicostd -max-observe-bytes) for million-file
// batches.
const MaxObserveBytes = 8 << 20

// maxIDBytes is the longest file ID an observation may carry. IDs are map
// keys, plan payload and sort keys for the life of the process; one body
// must not be able to plant megabyte-long ones.
const maxIDBytes = 1024

// ingestFanoutThreshold is the observe batch size below which ingestion
// runs the shards serially: fanning goroutines out for a handful of files
// costs more than the shard work.
const ingestFanoutThreshold = 2048

// FileObservation is one file's daily measurement.
type FileObservation struct {
	ID     string  `json:"id"`
	SizeGB float64 `json:"size_gb"`
	Reads  float64 `json:"reads"`
	Writes float64 `json:"writes"`
}

// ObserveRequest is the POST /v1/observe payload: one day's observations.
type ObserveRequest struct {
	Files []FileObservation `json:"files"`
}

// ObserveResponse reports ingestion counts.
type ObserveResponse struct {
	Accepted int `json:"accepted"`
	Tracked  int `json:"tracked"`
	// Duplicates counts batch entries whose ID already appeared earlier in
	// the same batch. Semantics are last-wins: the later entry replaces the
	// earlier one's measurement for the day (the history window advances
	// once per file per batch).
	Duplicates int `json:"duplicates"`
}

// PlanEntry is one file's assignment in a plan.
type PlanEntry struct {
	ID   string `json:"id"`
	Tier string `json:"tier"`
	// Changed reports whether this decision differs from the file's current
	// tier (i.e. a transition the operator must execute).
	Changed bool `json:"changed"`
}

// PlanResponse is the GET /v1/plan payload.
type PlanResponse struct {
	Day        int         `json:"day"`
	Files      []PlanEntry `json:"files"`
	ElapsedMS  float64     `json:"elapsed_ms"`
	Transition int         `json:"transitions"`
	// Decided is how many files the plan actually re-decided; the rest
	// served their cached assignment. Full reports whether this was a full
	// re-decision (?full=1 or the first plan after a policy swap).
	Decided int  `json:"decided"`
	Full    bool `json:"full"`
}

// StatsResponse is the GET /v1/stats payload.
type StatsResponse struct {
	TrackedFiles int     `json:"tracked_files"`
	Observations int64   `json:"observations"`
	PlansServed  int64   `json:"plans_served"`
	LastPlanMS   float64 `json:"last_plan_ms"`
	HistLen      int     `json:"hist_len"`
	// AgentServing is false while policy.Greedy decides the plans.
	AgentServing bool `json:"agent_serving"`
	// Replicas is how many network replicas the serving pool has built for
	// the current agent snapshot — bounded by the plan's shard fan-out width,
	// not by request volume or concurrency.
	Replicas int64 `json:"replicas"`
	// Shard occupancy: partition count, the most and least populated
	// shard, and the pending-decision (dirty) total across shards.
	Shards        int `json:"shards"`
	MaxShardFiles int `json:"max_shard_files"`
	MinShardFiles int `json:"min_shard_files"`
	DirtyFiles    int `json:"dirty_files"`
	// MaxShardDay/MinShardDay are the per-shard counts of observe batches
	// that carried an entry for the shard; they diverge when observe batches
	// only touch a subset of shards.
	MaxShardDay int64 `json:"max_shard_day"`
	MinShardDay int64 `json:"min_shard_day"`
}

// ObserveTap receives every validated /v1/observe batch after the serving
// store has ingested it — the hook the online learner's epoch trigger hangs
// off (internal/online). The call runs inline on the serve path with the
// batch day counter and the raw (already validated) entries; implementations
// must be safe for concurrent calls and must not retain the slice past the
// call.
//
// Under concurrent observe requests day values can reach the tap out of
// order (the counter is incremented before the unsynchronized tap call), so
// implementations must not assume monotone days. The learner does no
// per-file work here: its drift samples were already counted by the shard
// ingest (AttachLearner), so its tap drains O(shards) counters, scores
// O(buckets) and checks the epoch trigger. A tap that does heavy work, or
// holds a lock across per-file work, serializes the observe hot path across
// requests and becomes the ingest bottleneck.
type ObserveTap interface {
	TapObserve(day int64, files []FileObservation)
}

// Config tunes the serving state tier. The zero value selects the
// defaults.
type Config struct {
	// Shards is the tracked-state partition count, rounded up to a power
	// of two. 0 selects DefaultShards.
	Shards int
	// MaxObserveBytes caps a /v1/observe body. 0 selects MaxObserveBytes.
	MaxObserveBytes int64
	// Workers bounds the observe/plan shard fan-out. 0 selects
	// par.DefaultWorkers at each call.
	Workers int
}

// Server wraps an agent with sharded observation state. Create with New or
// NewWithConfig, or with NewGreedy to serve policy.Greedy until an agent is
// swapped in; mount via Handler.
//
// Serving uses a replica pool instead of one network per request: a plan
// borrows a pooled replica per shard worker, computes decisions with
// batched forward passes outside the shard locks, and returns the replicas
// — plans run one at a time, so the pool holds at most one replica per
// worker and repeated requests cost none. A replica is scratch over weights
// it shares with the pool's one private copy of the agent, packed for the
// GEMM kernel once per policy version. UpdateAgent refreshes the pool when a
// new training snapshot lands and marks every file dirty so the next plan
// re-decides the world under the new weights.
type Server struct {
	pool    *rl.ReplicaPool  // no source while Greedy serves
	model   *costmodel.Model // prices Greedy's decisions; nil on an agent-only server
	histLen int
	initial pricing.Tier
	workers int

	shards    []*shard
	shardMask uint32

	maxObserveBytes int64
	tap             ObserveTap

	day          atomic.Int64
	batchSeq     atomic.Uint64
	observations atomic.Int64
	plansServed  atomic.Int64
	lastPlanUS   atomic.Int64 // microseconds; 0 until the first plan
	lastPlanAt   atomic.Int64 // unix nanos; 0 until the first plan

	// planMu serializes plans: one snapshot→decide→commit fan-out and one
	// update of the view at a time, and a read-out of the view sees the plan
	// that produced it. Lock order is planMu, then a shard's mu. Observe and
	// UpdateAgent never take it, so ingest cannot wait on a plan for longer
	// than one shard critical section.
	planMu    sync.Mutex
	planEpoch uint64 // plans run so far; stamps the slots a plan changed
	view      planView
	packsSeen int64 // pool.Packs() as of the last plan, for the weight-packs counter

	met serveMetrics
}

// serveMetrics are the server's obs instruments (DESIGN.md §12). They live
// in the default registry, which is off outside daemons, so recording costs
// one atomic load per op in tests and examples.
type serveMetrics struct {
	observations *obs.Counter
	duplicates   *obs.Counter
	plans        *obs.Counter
	decisions    *obs.Counter
	transitions  *obs.Counter
	tracked      *obs.Gauge
	shards       *obs.Gauge
	planGen      *obs.Timer
	// The plan view: how often it was constructed from scratch (a file was
	// added since the last plan — that plan cost O(tracked files) again) and
	// how many blocks of wire bytes plans re-encoded.
	planRebuilds      *obs.Counter
	planBlocksEncoded *obs.Counter
	// How often the replica pool packed a policy's weights into kernel
	// layout, as the plans have seen it: it moves with policy versions, not
	// with plans, replicas or batches.
	weightPacks *obs.Counter
	// Rejected observe batches by cause: the body was not valid JSON for the
	// schema, it exceeded the body cap, or Observe's validation refused it.
	rejectedJSON     *obs.Counter
	rejectedTooLarge *obs.Counter
	rejectedInvalid  *obs.Counter
}

func newServeMetrics() serveMetrics {
	const rejectedHelp = "Observe batches rejected without ingesting anything, by cause."
	reg := obs.Default()
	return serveMetrics{
		observations: reg.Counter("minicost_serve_observations_total",
			"Per-file daily observations ingested via /v1/observe."),
		duplicates: reg.Counter("minicost_serve_duplicate_observations_total",
			"Observe-batch entries that duplicated an earlier ID in the same batch (last entry wins)."),
		plans: reg.Counter("minicost_serve_plans_total",
			"Assignment plans generated via /v1/plan."),
		decisions: reg.Counter("minicost_serve_plan_decisions_total",
			"Files re-decided by generated plans (incremental plans skip clean files)."),
		transitions: reg.Counter("minicost_serve_transitions_total",
			"Tier transitions the generated plans asked the operator to execute."),
		tracked: reg.Gauge("minicost_serve_tracked_files",
			"Files currently tracked by the agent server."),
		shards: reg.Gauge("minicost_serve_shards",
			"Tracked-state partitions in the serving store."),
		planGen: reg.Timer("minicost_serve_plan_seconds",
			"Plan generation time: dirty snapshot, batched forward passes, commit, plan view update."),
		planRebuilds: reg.Counter("minicost_serve_plan_rebuilds_total",
			"Plans that rebuilt the plan view from scratch because files were added since the previous plan."),
		planBlocksEncoded: reg.Counter("minicost_serve_plan_blocks_encoded_total",
			"Blocks of the plan's wire bytes re-encoded by generated plans."),
		weightPacks: reg.Counter("minicost_serve_weight_packs_total",
			"Policy versions whose weights were packed into GEMM kernel layout for serving, counted at the next plan: one pack of each Dense weight block (two per actor) at start and per UpdateAgent, none per plan, replica or batch."),
		rejectedJSON: reg.Counter("minicost_serve_rejected_batches_total",
			rejectedHelp, obs.L("reason", "json")),
		rejectedTooLarge: reg.Counter("minicost_serve_rejected_batches_total",
			rejectedHelp, obs.L("reason", "too_large")),
		rejectedInvalid: reg.Counter("minicost_serve_rejected_batches_total",
			rejectedHelp, obs.L("reason", "invalid")),
	}
}

// New builds a server around a trained agent with the default
// configuration. Files start in initial (usually hot).
func New(agent *rl.Agent, initial pricing.Tier) (*Server, error) {
	return NewWithConfig(agent, initial, Config{})
}

// NewWithConfig builds a server with an explicit shard count, body cap,
// and fan-out width.
func NewWithConfig(agent *rl.Agent, initial pricing.Tier, cfg Config) (*Server, error) {
	if agent == nil {
		return nil, errors.New("agentserver: nil agent")
	}
	return newServer(rl.NewReplicaPool(agent.Clone()), nil, agent.Net.HistLen, initial, cfg)
}

// NewGreedy builds a server that serves policy.Greedy, priced by model,
// until UpdateAgent installs an agent: each plan moves a decided file to the
// tier policy.GreedyStep picks from its newest observed day, so a replayed
// trace is served as Greedy.Assign plans it. histLen is the decision window
// of the agents that may be swapped in later; Greedy reads one day of it.
func NewGreedy(model *costmodel.Model, histLen int, initial pricing.Tier, cfg Config) (*Server, error) {
	if model == nil {
		return nil, errors.New("agentserver: nil cost model")
	}
	if histLen < 1 {
		return nil, fmt.Errorf("agentserver: decision window %d", histLen)
	}
	return newServer(new(rl.ReplicaPool), model, histLen, initial, cfg)
}

// newServer builds the store around pool, the agent's replicas or an empty
// pool for Greedy.
func newServer(pool *rl.ReplicaPool, model *costmodel.Model, histLen int, initial pricing.Tier, cfg Config) (*Server, error) {
	if !initial.Valid() {
		return nil, errors.New("agentserver: invalid initial tier")
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = DefaultShards
	}
	if shards < 0 || shards > 1<<16 {
		return nil, fmt.Errorf("agentserver: shard count %d out of range", cfg.Shards)
	}
	shards = ceilPow2(shards)
	maxBytes := cfg.MaxObserveBytes
	if maxBytes == 0 {
		maxBytes = MaxObserveBytes
	}
	if maxBytes < 0 {
		return nil, fmt.Errorf("agentserver: negative observe body cap %d", cfg.MaxObserveBytes)
	}
	s := &Server{
		pool:            pool,
		model:           model,
		histLen:         histLen,
		initial:         initial,
		workers:         cfg.Workers,
		shards:          make([]*shard, shards),
		shardMask:       uint32(shards - 1),
		maxObserveBytes: maxBytes,
		met:             newServeMetrics(),
	}
	for i := range s.shards {
		s.shards[i] = newShard(s.histLen)
	}
	s.met.shards.Set(float64(shards))
	// Derived gauges are computed at scrape time. Registered per server,
	// newest instance wins (one server per daemon).
	reg := obs.Default()
	reg.GaugeFunc("minicost_serve_plan_staleness_seconds",
		"Seconds since the last plan was generated (NaN before the first).",
		func() float64 {
			at := s.lastPlanAt.Load()
			if at == 0 {
				return math.NaN()
			}
			return time.Since(time.Unix(0, at)).Seconds()
		})
	reg.GaugeFunc("minicost_serve_dirty_files",
		"Files whose features changed since the last plan (pending re-decision).",
		func() float64 {
			n := 0
			for _, sh := range s.shards {
				n += sh.dirtyCount()
			}
			return float64(n)
		})
	reg.GaugeFunc("minicost_serve_agent_serving",
		"1 while an agent decides the plans, 0 while policy.Greedy does (a server booted without a checkpoint, until a candidate is swapped in).",
		func() float64 {
			if s.AgentServing() {
				return 1
			}
			return 0
		})
	return s, nil
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Shards returns the store's partition count.
func (s *Server) Shards() int { return len(s.shards) }

// AgentServing reports whether an agent decides the next plan: false until
// the replica pool of a NewGreedy server has packed one.
func (s *Server) AgentServing() bool { return s.pool.Packs() > 0 }

// SetTap installs the observe tap (the online learner's feed; a server has
// none until it is set), after construction — minicostd builds the
// server first, then the online learner (which needs the server), then taps
// it. Call before the server starts taking traffic; the field is read
// without synchronization on the observe path.
func (s *Server) SetTap(tap ObserveTap) { s.tap = tap }

// AttachLearner prepares the store for an online learner: every file's rings
// keep window cells (at least the decision window; plans still pack only the
// most recent histLen) and shard ingest starts counting drift samples for
// DrainDrift. It must run before the server tracks any file — there is no
// ring re-layout — and before traffic starts.
func (s *Server) AttachLearner(window int) error {
	if window < s.histLen {
		return fmt.Errorf("agentserver: learner window %d shorter than the decision window %d", window, s.histLen)
	}
	if n := s.TrackedFiles(); n > 0 {
		return fmt.Errorf("agentserver: AttachLearner with %d files already tracked", n)
	}
	for _, sh := range s.shards {
		sh.attachLearner(window)
	}
	return nil
}

// DrainDrift adds to dst the drift samples every shard has counted since the
// previous drain and zeroes them. Requires AttachLearner.
func (s *Server) DrainDrift(dst *DriftCounts) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		dst.Add(sh.drift)
		*sh.drift = DriftCounts{}
		sh.mu.Unlock()
	}
}

// History is a copy of per-file history out of the store, one entry per
// file: Reads[i] and Writes[i] are file i's most recent Days daily
// measurements, oldest first.
type History struct {
	Days          int
	IDs           []string
	SizeGB        []float64
	Reads, Writes [][]float64
}

// SnapshotHistory copies out, under the shard locks, every file with at
// least minDays observed days: its ID, last size and latest window. Days is
// the shortest history among those files, capped at the ring length, so all
// series align. At most maxFiles files are copied — each shard contributes
// its earliest-tracked eligible files up to a fixed share, maxFiles split as
// evenly as the shard count allows with the remainder going to the lowest
// shards, so membership below the cap does not move as the population
// grows. Observations landing between the two passes only lengthen
// histories; the latest Days cells of every picked file are still in its
// ring.
func (s *Server) SnapshotHistory(minDays, maxFiles int) *History {
	picked := make([][]int32, len(s.shards))
	h := &History{Days: s.shards[0].ringLen}
	n := 0
	for si, sh := range s.shards {
		share := maxFiles / len(s.shards)
		if si < maxFiles%len(s.shards) {
			share++
		}
		sh.mu.Lock()
		for slot := 0; slot < len(sh.ids) && len(picked[si]) < share; slot++ {
			if f := int(sh.fill[slot]); f >= minDays {
				h.Days = min(h.Days, f)
				picked[si] = append(picked[si], int32(slot))
			}
		}
		sh.mu.Unlock()
		n += len(picked[si])
	}
	h.IDs = make([]string, 0, n)
	h.SizeGB = make([]float64, 0, n)
	h.Reads = make([][]float64, 0, n)
	h.Writes = make([][]float64, 0, n)
	cells := make([]float64, 2*n*h.Days)
	for si, sh := range s.shards {
		sh.mu.Lock()
		for _, slot := range picked[si] {
			rs, ws := cells[:h.Days:h.Days], cells[h.Days:2*h.Days:2*h.Days]
			cells = cells[2*h.Days:]
			sh.latestInto(slot, h.Days, rs, ws)
			h.IDs = append(h.IDs, sh.ids[slot])
			h.SizeGB = append(h.SizeGB, sh.size[slot])
			h.Reads = append(h.Reads, rs)
			h.Writes = append(h.Writes, ws)
		}
		sh.mu.Unlock()
	}
	return h
}

// UpdateAgent swaps in a fresh training snapshot — on a Greedy server, the
// first agent, which serves from the next plan on. Pooled replicas of the
// previous snapshot are invalidated; in-flight plans finish on the weights
// they started with. Every tracked file is marked dirty — cached plan
// decisions were made by the previous weights — so the next incremental
// plan re-decides the full population. The new agent must keep the
// history-window length the observation state was built for.
func (s *Server) UpdateAgent(agent *rl.Agent) error {
	if agent == nil {
		return errors.New("agentserver: nil agent")
	}
	if agent.Net.HistLen != s.histLen {
		return fmt.Errorf("agentserver: snapshot hist window %d, server tracks %d", agent.Net.HistLen, s.histLen)
	}
	s.pool.Swap(agent.Clone())
	for _, sh := range s.shards {
		sh.markAllDirty()
	}
	return nil
}

// Observe ingests one day's batch. One pass validates, hashes and counts
// every entry first, and the batch is rejected without mutation on any bad
// entry; ingestion then fans out across the shards the batch touches
// (par.ForShards), each shard applying its own entries under its own lock —
// no global lock on the hot path. Duplicate IDs within the batch are
// last-wins and counted in the response.
func (s *Server) Observe(req *ObserveRequest) (*ObserveResponse, error) {
	files := req.Files
	n := len(files)
	var b *shardBuckets
	if len(s.shards) > 1 {
		b = bucketPool.Get().(*shardBuckets)
		defer b.release()
	}
	if err := s.bucketByShard(files, b); err != nil {
		s.met.rejectedInvalid.Inc()
		return nil, err
	}
	seq := s.batchSeq.Add(1)
	dups := 0
	switch {
	case b == nil:
		dups = s.shards[0].ingestBatch(files, nil, seq, s.initial)
	case n < ingestFanoutThreshold:
		for si, sh := range s.shards {
			if idxs := b.of(si); len(idxs) > 0 {
				dups += sh.ingestBatch(files, idxs, seq, s.initial)
			}
		}
	default:
		perShard := b.dups
		par.ForShards(len(s.shards), s.workers, func(si int) {
			perShard[si] = 0
			if idxs := b.of(si); len(idxs) > 0 {
				perShard[si] = s.shards[si].ingestBatch(files, idxs, seq, s.initial)
			}
		})
		for _, d := range perShard {
			dups += d
		}
	}
	day := s.day.Add(1)
	if s.tap != nil {
		// The tap runs inline after ingestion, so what it drains or reads
		// from the store already includes this batch.
		s.tap.TapObserve(day, files)
	}
	s.observations.Add(int64(n))
	tracked := s.TrackedFiles()
	s.met.observations.Add(float64(n))
	s.met.duplicates.Add(float64(dups))
	s.met.tracked.Set(float64(tracked))
	return &ObserveResponse{Accepted: n, Tracked: tracked, Duplicates: dups}, nil
}

// shardBuckets is one observe batch laid out by owning shard: shard si's
// batch positions are order[offsets[si]:offsets[si+1]], in batch order.
// home and pos are the counting sort's scratch and dups the fan-out's
// per-shard duplicate counts. Taken from bucketPool per batch, so a
// steady-state Observe reuses the previous batch's arrays.
type shardBuckets struct {
	home    []int32 // batch position → owning shard
	offsets []int32
	pos     []int32
	order   []int32
	dups    []int
}

var bucketPool = sync.Pool{New: func() any { return new(shardBuckets) }}

// reset sizes the buckets for n entries over p shards, every count zero.
func (b *shardBuckets) reset(n, p int) {
	b.home = slices.Grow(b.home[:0], n)[:n]
	b.order = slices.Grow(b.order[:0], n)[:n]
	b.offsets = slices.Grow(b.offsets[:0], p+1)[:p+1]
	clear(b.offsets)
	b.pos = slices.Grow(b.pos[:0], p)[:p]
	b.dups = slices.Grow(b.dups[:0], p)[:p]
}

// of returns shard si's batch positions.
func (b *shardBuckets) of(si int) []int32 {
	return b.order[b.offsets[si]:b.offsets[si+1]]
}

// release returns the buckets to the pool, or drops them when a batch larger
// than a default-cap body can carry grew them (the wire scratch's bound).
func (b *shardBuckets) release() {
	if cap(b.home) <= maxPooledFiles {
		bucketPool.Put(b)
	}
}

// bucketByShard is Observe's one pass before any mutation. It validates
// each entry — the first bad one rejects the whole batch — and, given b,
// hashes the entry to its shard and counts it; a stable counting sort then
// lays the batch positions out by shard in b, so each shard sees its
// entries in batch order (the last-wins duplicate contract depends on
// that). With one shard b is nil and the pass only validates.
func (s *Server) bucketByShard(files []FileObservation, b *shardBuckets) error {
	if len(files) == 0 {
		return errors.New("agentserver: empty observation batch")
	}
	if b == nil {
		for i := range files {
			if err := checkObservation(&files[i]); err != nil {
				return err
			}
		}
		return nil
	}
	p := len(s.shards)
	b.reset(len(files), p)
	counts := b.offsets
	for i := range files {
		f := &files[i]
		if err := checkObservation(f); err != nil {
			return err
		}
		si := int32(shardOf(f.ID, s.shardMask))
		b.home[i] = si
		counts[si+1]++
	}
	for i := 1; i <= p; i++ {
		counts[i] += counts[i-1]
	}
	copy(b.pos, counts[:p])
	for i, si := range b.home {
		b.order[b.pos[si]] = int32(i)
		b.pos[si]++
	}
	return nil
}

// checkObservation refuses an entry that may not be ingested: one without
// an ID or with an ID over maxIDBytes, a size that is not positive and
// finite, or counts that are not finite and non-negative. finiteNonNeg is
// false for NaN and ±Inf as well as negatives: the rings feed training
// traces and the holdout gate, not only plans.
func checkObservation(f *FileObservation) error {
	switch {
	case f.ID == "":
		return errors.New("agentserver: observation without id")
	case len(f.ID) > maxIDBytes:
		return fmt.Errorf("agentserver: observation id of %d bytes, limit %d", len(f.ID), maxIDBytes)
	case !(f.SizeGB > 0 && finiteNonNeg(f.SizeGB) && finiteNonNeg(f.Reads) && finiteNonNeg(f.Writes)):
		return fmt.Errorf("agentserver: invalid observation for %q", f.ID)
	}
	return nil
}

// finiteNonNeg reports 0 <= v < +Inf.
func finiteNonNeg(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// TrackedFiles sums the shard populations without taking any lock.
func (s *Server) TrackedFiles() int {
	n := int64(0)
	for _, sh := range s.shards {
		n += sh.files.Load()
	}
	return int(n)
}

// BuildPlan produces the current assignment for every tracked file and
// commits the decisions as the files' current tiers (the operator is
// assumed to execute the plan, as System.Run does).
//
// Incremental contract: with full=false only files marked dirty since the
// last plan are re-decided; every other file serves the cached decision of
// the plan that last saw its features. Because DecideBatch is bitwise
// row-independent, the incremental plan equals the full re-plan bit for bit
// (TestIncrementalPlanEqualsFull pins this at shard counts 1, 4, and 16).
//
// Files is a private copy of the server's plan view (see plan); the
// /v1/plan handler reads the same view out as wire bytes instead
// (appendPlan).
func (s *Server) BuildPlan(full bool) (*PlanResponse, error) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	resp, err := s.plan(full)
	if err != nil {
		return nil, err
	}
	resp.Files = slices.Clone(s.view.entries)
	return resp, nil
}

// appendPlan runs a plan and appends its wire form to dst: the body
// AppendPlan writes for BuildPlan's answer, joined from the view's cached
// blocks.
func (s *Server) appendPlan(dst []byte, full bool) ([]byte, error) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	resp, err := s.plan(full)
	if err != nil {
		return dst, err
	}
	return appendPlanBlocks(dst, resp, s.view.blocks), nil
}

// plan runs one plan and brings the view up to date with it; the answer's
// Files are left for the caller to read out of the view. Caller holds
// planMu.
//
// Each shard plans on its own goroutine: dirty snapshot and feature packing
// under the shard lock, batched forward passes with it released, commit
// under the lock again. A serial pass then patches the entries of the
// decided slots into the view — or, when a slot was added since the view was
// built, rebuilds it the way every plan used to be built — and re-encodes
// the blocks of wire bytes that no longer match their entries. A ?full=1
// plan and the plan after UpdateAgent take the same path with more slots
// decided.
func (s *Server) plan(full bool) (*PlanResponse, error) {
	if s.TrackedFiles() == 0 {
		return nil, errors.New("agentserver: no observations yet")
	}
	start := time.Now()
	resp := &PlanResponse{Day: int(s.day.Load()), Full: full}
	s.planEpoch++
	epoch := s.planEpoch
	p := len(s.shards)
	decided := make([]int, p)
	transitions := make([]int, p)
	par.ForShards(p, s.workers, func(si int) {
		sh := s.shards[si]
		m := sh.snapshotDecisions(full)
		if m > 0 {
			rep := s.pool.Get() // nil while Greedy serves
			sh.decide(rep, s.model, m)
			s.pool.Put(rep)
		}
		decided[si] = m
		transitions[si] = sh.commit(m, epoch)
	})
	if packs := s.pool.Packs(); packs != s.packsSeen {
		s.met.weightPacks.Add(float64(packs - s.packsSeen))
		s.packsSeen = packs
	}
	v := &s.view
	if v.current(s.shards) {
		v.unflag()
		for si, sh := range s.shards {
			v.patch(si, sh, decided[si], epoch)
		}
	} else {
		v.rebuild(s.shards, s.workers, epoch)
		s.met.planRebuilds.Inc()
	}
	s.met.planBlocksEncoded.Add(float64(v.encode()))
	for si := 0; si < p; si++ {
		resp.Decided += decided[si]
		resp.Transition += transitions[si]
	}
	// One clock for the answer, /v1/stats and the metrics; it covers the view
	// update, which is part of producing the plan on either read-out.
	now := time.Now()
	elapsed := now.Sub(start)
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	s.plansServed.Add(1)
	s.lastPlanUS.Store(elapsed.Microseconds())
	s.lastPlanAt.Store(now.UnixNano())
	s.met.planGen.Observe(elapsed)
	s.met.plans.Inc()
	s.met.decisions.Add(float64(resp.Decided))
	s.met.transitions.Add(float64(resp.Transition))
	s.met.tracked.Set(float64(s.TrackedFiles()))
	return resp, nil
}

// Stats snapshots counters and shard occupancy.
func (s *Server) Stats() *StatsResponse {
	resp := &StatsResponse{
		TrackedFiles: s.TrackedFiles(),
		Observations: s.observations.Load(),
		PlansServed:  s.plansServed.Load(),
		LastPlanMS:   float64(s.lastPlanUS.Load()) / 1000,
		HistLen:      s.histLen,
		AgentServing: s.AgentServing(),
		Replicas:     s.pool.Created(),
		Shards:       len(s.shards),
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		files := len(sh.ids)
		dirty := len(sh.dirty)
		shDay := sh.day
		sh.mu.Unlock()
		resp.DirtyFiles += dirty
		if i == 0 || files > resp.MaxShardFiles {
			resp.MaxShardFiles = files
		}
		if i == 0 || files < resp.MinShardFiles {
			resp.MinShardFiles = files
		}
		if i == 0 || shDay > resp.MaxShardDay {
			resp.MaxShardDay = shDay
		}
		if i == 0 || shDay < resp.MinShardDay {
			resp.MinShardDay = shDay
		}
	}
	return resp
}

// Handler returns the HTTP mux:
//
//	POST /v1/observe        ingest one day's observations
//	GET  /v1/plan[?full=1]  current assignment plan (commits decisions);
//	                        full=1 forces re-deciding every file
//	GET  /v1/stats          counters and shard occupancy
//	GET  /v1/healthz        liveness
//
// Every endpoint is instrumented: request counts by endpoint and outcome
// (minicost_http_requests_total) and a latency histogram per endpoint
// (minicost_http_request_seconds).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/observe", instrument("observe", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		// Reject declared non-JSON payloads up front with 415 rather than a
		// confusing decode error; an absent Content-Type is tolerated.
		if ct := r.Header.Get("Content-Type"); ct != "" && !isJSONContentType(ct) {
			httpError(w, http.StatusUnsupportedMediaType, "Content-Type must be application/json")
			return
		}
		// The scratch, and so the decoded batch, is this request's until the
		// handler returns; Observe and the tap are done with it by then.
		sc := wirePool.Get().(*wireScratch)
		defer sc.release()
		body, err := sc.readBody(http.MaxBytesReader(w, r.Body, s.maxObserveBytes))
		if err == nil {
			err = sc.decode(body, &sc.req)
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				s.met.rejectedTooLarge.Inc()
				httpError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("observation batch exceeds %d bytes", s.maxObserveBytes))
				return
			}
			s.met.rejectedJSON.Inc()
			httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
			return
		}
		resp, err := s.Observe(&sc.req)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, resp)
	}))
	mux.HandleFunc("/v1/plan", instrument("plan", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
		full := false
		switch v := r.URL.Query().Get("full"); v {
		case "", "0", "false":
		case "1", "true":
			full = true
		default:
			httpError(w, http.StatusBadRequest, "full must be 0 or 1")
			return
		}
		// The whole plan is copied out of the view before the first byte goes
		// out, so it travels with a Content-Length instead of chunked and a
		// slow client holds no lock.
		sc := wirePool.Get().(*wireScratch)
		defer sc.release()
		var err error
		if sc.buf, err = s.appendPlan(sc.buf[:0], full); err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(sc.buf)))
		_, _ = w.Write(sc.buf) // a client that hung up is not the server's error
	}))
	mux.HandleFunc("/v1/stats", instrument("stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	}))
	mux.HandleFunc("/v1/healthz", instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}))
	return mux
}

// isJSONContentType accepts application/json with optional parameters
// (charset) and +json suffixed types.
func isJSONContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.ToLower(strings.TrimSpace(ct))
	return ct == "application/json" || strings.HasSuffix(ct, "+json")
}

// instrument wraps an endpoint handler with its request counters and
// latency histogram. Metrics are looked up once at mux construction, not
// per request.
func instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reg := obs.Default()
	ok := reg.Counter("minicost_http_requests_total",
		"HTTP requests served, by endpoint and outcome.",
		obs.L("endpoint", endpoint), obs.L("status", "ok"))
	failed := reg.Counter("minicost_http_requests_total",
		"HTTP requests served, by endpoint and outcome.",
		obs.L("endpoint", endpoint), obs.L("status", "error"))
	lat := reg.Timer("minicost_http_request_seconds",
		"HTTP request latency by endpoint.", obs.L("endpoint", endpoint))
	return func(w http.ResponseWriter, r *http.Request) {
		sw := lat.Start()
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		h(cw, r)
		sw.Stop()
		if cw.code >= 400 {
			failed.Inc()
		} else {
			ok.Inc()
		}
	}
}

// codeWriter captures the response status for the outcome counters.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
