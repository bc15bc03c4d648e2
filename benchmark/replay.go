package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/online"
	"minicost/internal/par"
	"minicost/internal/pricing"
	"minicost/internal/rl"
)

// replayer drives an in-process server through the same layer calls, in the
// same order, as minicostd's handlers make for each request — body →
// json.Decoder.Decode → Server.Observe → Learner.TapObserve, and
// Server.BuildPlan → json.Encoder.Encode — with a span around each. The
// server's own tap stays nil: the harness calls the learner itself so the
// tap gets its own span.
type replayer struct {
	srv  *agentserver.Server
	tap  *online.Learner // nil unless the workload runs the learner
	rec  *recorder       // nil replays untraced
	req  int32
	day  int64
	busy time.Duration // wall inside observe/plan, shadow timing excluded

	// Shadow decide: BuildPlan's DecideBatch calls cannot be wrapped from
	// outside, so once the replay is over each plan's row count is decided
	// again on scratch features with the server's own fan-out shape, and
	// that time is booked as the plan span's rl child. Doing it afterwards
	// keeps the traced and untraced replays' timed sections identical.
	pending   []pendingShadow
	pool      *rl.ReplicaPool
	shards    int
	feats     []*mat.Matrix
	tiers     [][]pricing.Tier
	featDim   int
	planBytes int
}

// pendingShadow is one plan span awaiting its shadow decide of m rows.
type pendingShadow struct {
	span, req int32
	m         int
}

func newReplayer(agent *rl.Agent, tap *online.Learner, srv *agentserver.Server, rec *recorder) *replayer {
	p := srv.Shards()
	return &replayer{
		srv: srv, tap: tap, rec: rec,
		pool: rl.NewReplicaPool(agent.Clone()), shards: p,
		feats: make([]*mat.Matrix, p), tiers: make([][]pricing.Tier, p),
		featDim: mdp.FeatureDim(agent.Net.HistLen),
	}
}

// observe replays one POST /v1/observe body.
func (rp *replayer) observe(body []byte) error {
	id := rp.req
	rp.req++
	start := time.Now()
	root := rp.rec.begin("request.observe", -1, id)
	s := rp.rec.begin("codec.observe_decode", root, id)
	var req agentserver.ObserveRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	rp.rec.end(s)
	if err == nil {
		s = rp.rec.begin("agentserver.observe", root, id)
		_, err = rp.srv.Observe(&req)
		rp.rec.end(s)
	}
	if err == nil && rp.tap != nil {
		rp.day++
		s = rp.rec.begin("online.tap", root, id)
		rp.tap.TapObserve(rp.day, req.Files)
		rp.rec.end(s)
	}
	rp.rec.end(root)
	rp.busy += time.Since(start)
	return err
}

// countWriter counts what the plan encoder would put on the wire.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// plan replays one GET /v1/plan.
func (rp *replayer) plan() (*agentserver.PlanResponse, error) {
	id := rp.req
	rp.req++
	start := time.Now()
	root := rp.rec.begin("request.plan", -1, id)
	ps := rp.rec.begin("agentserver.plan", root, id)
	plan, err := rp.srv.BuildPlan(false)
	rp.rec.end(ps)
	if err != nil {
		rp.rec.end(root)
		return nil, err
	}
	es := rp.rec.begin("codec.plan_encode", root, id)
	var cw countWriter
	err = json.NewEncoder(&cw).Encode(plan)
	rp.rec.end(es)
	rp.rec.end(root)
	rp.busy += time.Since(start)
	rp.planBytes = cw.n
	if rp.rec != nil {
		rp.pending = append(rp.pending, pendingShadow{span: ps, req: id, m: plan.Decided})
	}
	return plan, err
}

// finishShadows times and books the shadow decide of every replayed plan.
func (rp *replayer) finishShadows() {
	for _, p := range rp.pending {
		rp.rec.shadow("rl.decide", p.span, p.req, rp.shadowDecide(p.m))
	}
	rp.pending = nil
}

// shadowDecide times deciding m rows split evenly over the store's shards
// and fanned out the way BuildPlan fans out.
func (rp *replayer) shadowDecide(m int) time.Duration {
	if m == 0 {
		return 0
	}
	per := (m + rp.shards - 1) / rp.shards
	for si := range rp.feats {
		if rp.feats[si] == nil || rp.feats[si].Rows != per {
			rp.feats[si] = mat.New(per, rp.featDim)
			for i := range rp.feats[si].Data {
				rp.feats[si].Data[i] = float64((i*7+si)%13) / 13
			}
			rp.tiers[si] = make([]pricing.Tier, per)
		}
	}
	start := time.Now()
	par.ForShards(rp.shards, 0, func(si int) {
		rep := rp.pool.Get()
		rep.Agent.DecideBatch(rp.feats[si], rp.tiers[si], 1)
		rp.pool.Put(rep)
	})
	return time.Since(start)
}

// heapAlloc returns the live heap in bytes after two full collections (the
// second empties the sync.Pool victim caches encoding/json parks buffers in).
func heapAlloc() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// replayTraced runs fn twice — an untraced warm-up that faults the heap in,
// then traced from a collected heap — books the shadow decides, and returns
// the recorder and the traced replayer.
func replayTraced(fn func(*recorder) (*replayer, error)) (*recorder, *replayer, error) {
	if _, err := fn(nil); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	rec := newRecorder()
	traced, err := fn(rec)
	if err != nil {
		return nil, nil, err
	}
	traced.finishShadows()
	return rec, traced, nil
}

// overheadShare prices the tracer: the measured cost of one begin/end pair
// times the spans recorded inside the replay's timed sections, as a share of
// that timed wall. (Replaying once more untraced and comparing walls was
// tried first: the two walls differed by ±30 % from heap state alone.)
func overheadShare(rec *recorder, rp *replayer) float64 {
	const pairs = 1 << 16
	scratch := &recorder{t0: time.Now(), spans: make([]span, 0, pairs)}
	start := time.Now()
	for i := 0; i < pairs; i++ {
		scratch.end(scratch.begin("calibrate", -1, 0))
	}
	perSpan := time.Since(start).Seconds() / pairs
	timed := 0
	for _, s := range rec.spans {
		if !s.Shadow {
			timed++
		}
	}
	return float64(timed) * perSpan / rp.busy.Seconds()
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// medianOf returns the median of m[name], or 0 when the layer never ran.
func medianOf(m map[string][]float64, name string) float64 { return median(m[name]) }
