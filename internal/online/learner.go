// Package online closes the paper's serve→train loop (DESIGN.md §16): a
// continuous-learning subsystem that watches the live /v1/observe stream
// through the serving store — the store's per-file rings are the only
// history there is; the learner keeps none of its own — detects distribution
// drift against the training baseline, periodically fine-tunes the A3C
// policy on environments reconstructed from the stored windows, and
// hot-swaps the result into serving through the ReplicaPool snapshot
// machinery — behind a validation gate that rejects candidates regressing
// simulated cost on a held-out slice of the tracked files, against the
// serving agent or, while the server serves policy.Greedy, against Greedy.
//
// The package is on minicost-vet's deterministic list: given a seed and an
// observation sequence, every decision the learner makes (train/holdout
// split, drift score, gate verdict) is a pure function of its inputs.
// Wall-clock reads exist only on annotated instrumentation lines.
package online

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// calibBatches is how many initial tap batches self-calibrate the drift
// baseline.
const calibBatches = 4

// Epoch trigger reasons, reported in Status.LastEpochReason.
const (
	reasonDrift   = "drift"
	reasonCadence = "cadence"
	reasonManual  = "manual"
)

// ErrNotEnoughData reports that a fine-tune epoch was requested before the
// serving store held any training file with MinTrainDays of history.
var ErrNotEnoughData = errors.New("online: not enough buffered data to fine-tune")

// maxTrainFiles caps the files one epoch's snapshot copies out of the store
// (train and holdout together), which bounds an epoch's memory at any
// population. Every tracked file is still drift-sampled.
const maxTrainFiles = 65536

// Config wires a Learner into a running daemon. Trainer, Serving, and Model
// are required; zero values elsewhere select the documented defaults.
type Config struct {
	// Trainer is the A3C instance fine-tune epochs resume. When an agent
	// serves, the trainer's published weights must be its weights, which
	// the Learner snapshots as the initial incumbent; when the server
	// serves policy.Greedy (agentserver.NewGreedy), Greedy is the incumbent
	// and the trainer may start anywhere.
	Trainer *rl.A3C
	// Serving is the hot-swap target: accepted candidates go through its
	// UpdateAgent/ReplicaPool double-buffered snapshot machinery.
	Serving *agentserver.Server
	// Model prices the reconstructed training environments and the
	// validation-gate evaluations.
	Model *costmodel.Model
	// Reward parameterizes Eq. 4 for reconstructed episodes. The zero value
	// is NOT defaulted — pass mdp.DefaultReward() unless deliberately
	// reshaping the online reward.
	Reward mdp.RewardConfig
	// Initial is the tier reconstructed episodes start in (hot, per §4.2).
	Initial pricing.Tier

	// FinetuneEvery schedules a cadence epoch every N tap batches. The
	// cadence is count-based, not wall-clock, so a replayed observation
	// sequence schedules identically. 0 disables cadence epochs (drift can
	// still trigger).
	FinetuneEvery int
	// FinetuneSteps is the environment-step budget per epoch. 0 selects
	// 2048.
	FinetuneSteps int64
	// MinTrainDays is the observed-day minimum for a tracked file to enter
	// a training snapshot. 0 selects max(histLen, 2); a value below 2 is
	// raised to 2, since a 1-day history holds no decision (mdp's decision
	// rule serves day 0 in the initial tier); the window caps it. Negative
	// is an error.
	MinTrainDays int
	// HoldoutEvery holds out the ~1/k of eligible files whose ID hash
	// falls in the holdout residue class — an identity-keyed split, stable
	// as the tracked population grows — for the validation gate. 0 selects
	// 5 (a ~20% slice); negative disables the holdout.
	HoldoutEvery int

	// DriftThreshold triggers an epoch when the PSI drift score reaches it.
	// 0 disables drift triggering (the score is still computed/exported).
	// The drift baseline self-calibrates over the first calibBatches tap
	// batches.
	DriftThreshold float64

	// SwapGate requires a candidate to not regress simulated cost on the
	// held-out slice vs. the incumbent before swapping; rejected candidates
	// roll the trainer back to the serving weights. Without a holdout
	// (HoldoutEvery < 0, or no eligible holdout files yet) the gate has no
	// evidence: it admits against an agent incumbent and refuses against
	// Greedy, which is also the one case a rejection leaves the trainer as
	// the epoch left it — no agent serves, so there are no weights to
	// return to.
	SwapGate bool
	// SwapMargin is the gate's relative slack: a candidate passes while
	// candidateCost <= incumbentCost × (1+SwapMargin). 0 means equal cost
	// still passes.
	SwapMargin float64

	// CheckpointDir, when set, persists the trainer after every accepted
	// swap (atomic rename; see checkpoint.go).
	CheckpointDir string
	// CheckpointKeep bounds retained checkpoints. 0 selects 5; negative
	// keeps everything.
	CheckpointKeep int
}

// Status is the learner's externally visible state (/v1/learner, /healthz).
// BufferFiles is the serving store's tracked-file count and BufferWindow its
// ring length in observed days per file.
type Status struct {
	Batches      int64 `json:"batches"`
	BufferFiles  int   `json:"buffer_files"`
	BufferWindow int   `json:"buffer_window"`

	DriftScore  float64            `json:"drift_score"`
	DriftDims   map[string]float64 `json:"drift_dims"`
	Calibrating bool               `json:"calibrating"`

	Epochs            int64   `json:"epochs"`
	LastEpochReason   string  `json:"last_epoch_reason,omitempty"`
	LastEpochSteps    int64   `json:"last_epoch_steps"`
	LastEpochSeconds  float64 `json:"last_epoch_seconds"`
	LastTrainFiles    int     `json:"last_train_files"`
	LastHoldoutFiles  int     `json:"last_holdout_files"`
	LastCandidateCost float64 `json:"last_candidate_cost"`
	LastIncumbentCost float64 `json:"last_incumbent_cost"`
	LastDisagreement  float64 `json:"last_disagreement"`

	Swaps          int64  `json:"swaps"`
	SwapsRejected  int64  `json:"swaps_rejected"`
	Checkpoints    int64  `json:"checkpoints"`
	LastCheckpoint string `json:"last_checkpoint,omitempty"`
	LastError      string `json:"last_error,omitempty"`
}

// Learner is the continuous-learning control loop. The serve path feeds it
// through TapObserve (agentserver.ObserveTap); a background goroutine
// (Start) runs fine-tune epochs when the tap schedules them; epochs
// snapshot the serving store's rings, resume the trainer, validate the
// candidate against the incumbent on the held-out slice, and either hot-swap
// serving or roll the trainer back.
type Learner struct {
	cfg     Config
	histLen int
	window  int // the serving store's ring length, set through AttachLearner

	kick     chan struct{}
	stopCh   chan struct{}
	doneCh   chan struct{}
	started  atomic.Bool
	stopOnce sync.Once

	// tapMu guards what the observe tap touches: the drift detector, batch
	// counters, and epoch-trigger bookkeeping — O(buckets) work per batch,
	// and no store lock is taken while it is held.
	tapMu          sync.Mutex
	drift          *driftStats
	batches        int64
	lastEpochBatch int64
	pendingReason  string
	lastScore      float64

	// epochMu serializes fine-tune epochs (the loop goroutine and any
	// direct RunEpoch callers).
	epochMu sync.Mutex

	// stMu guards the status block and the incumbent policy.
	stMu      sync.Mutex
	incumbent *rl.Agent // nil while the server serves policy.Greedy
	ckptSeq   int64
	st        Status
}

// New validates cfg, applies defaults, attaches to cfg.Serving — which must
// not be tracking any file yet: its rings are sized here, to max(2×histLen,
// 16) observed days per file — and builds a Learner whose incumbent is the
// trainer's current snapshot, or Greedy when the server serves Greedy. Call
// Start to run the background loop, and
// install the Learner as the server's tap (or call TapObserve after each
// Observe) to drive the epoch trigger.
func New(cfg Config) (*Learner, error) {
	if cfg.Trainer == nil {
		return nil, errors.New("online: nil trainer")
	}
	if cfg.Serving == nil {
		return nil, errors.New("online: nil serving server")
	}
	if cfg.Model == nil {
		return nil, errors.New("online: nil cost model")
	}
	if !cfg.Initial.Valid() {
		return nil, errors.New("online: invalid initial tier")
	}
	histLen := cfg.Trainer.Config().Net.HistLen
	if got := cfg.Serving.Stats().HistLen; got != histLen {
		return nil, fmt.Errorf("online: trainer hist window %d, serving tracks %d", histLen, got)
	}
	window := max(2*histLen, 16)
	if cfg.FinetuneEvery < 0 || cfg.DriftThreshold < 0 {
		return nil, errors.New("online: negative cadence or drift threshold")
	}
	if cfg.FinetuneSteps == 0 {
		cfg.FinetuneSteps = 2048
	}
	if cfg.FinetuneSteps < 0 {
		return nil, fmt.Errorf("online: fine-tune steps %d", cfg.FinetuneSteps)
	}
	if cfg.MinTrainDays < 0 {
		return nil, fmt.Errorf("online: negative MinTrainDays %d", cfg.MinTrainDays)
	}
	if cfg.MinTrainDays == 0 {
		cfg.MinTrainDays = histLen
	}
	cfg.MinTrainDays = min(max(cfg.MinTrainDays, 2), window)
	if cfg.HoldoutEvery == 0 {
		cfg.HoldoutEvery = 5
	}
	if cfg.CheckpointKeep == 0 {
		cfg.CheckpointKeep = 5
	}
	// Resume checkpoint numbering after any prior run sharing the directory:
	// starting from 0 would name new checkpoints below the retained ones, so
	// name-ordered pruning would delete them immediately and LatestCheckpoint
	// would keep returning a stale prior-run file.
	ckptSeq := int64(0)
	if cfg.CheckpointDir != "" {
		var err error
		if ckptSeq, err = maxCheckpointSeq(cfg.CheckpointDir); err != nil {
			return nil, err
		}
	}
	if err := cfg.Serving.AttachLearner(window); err != nil {
		return nil, err
	}
	var incumbent *rl.Agent
	if cfg.Serving.AgentServing() {
		incumbent = cfg.Trainer.Snapshot()
	}
	return &Learner{
		cfg:       cfg,
		histLen:   histLen,
		window:    window,
		kick:      make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		drift:     &driftStats{calibrating: true},
		incumbent: incumbent,
		ckptSeq:   ckptSeq,
	}, nil
}

// Start launches the background epoch loop. Pair with Stop. Idempotent:
// repeated calls launch one loop.
func (l *Learner) Start() {
	if l.started.CompareAndSwap(false, true) {
		go l.runLoop()
	}
}

// Stop terminates the background loop, waiting for an in-flight epoch to
// finish. A no-op when Start never ran, and safe to call repeatedly. The
// tap keeps scoring drift after Stop; only epoch execution halts.
func (l *Learner) Stop() {
	if !l.started.Load() {
		return
	}
	l.stopOnce.Do(func() { close(l.stopCh) })
	<-l.doneCh
}

func (l *Learner) runLoop() {
	defer close(l.doneCh)
	for {
		select {
		case <-l.stopCh:
			return
		case <-l.kick:
			// Epoch errors land in Status.LastError; the loop keeps serving
			// future triggers regardless.
			_ = l.RunEpoch()
		}
	}
}

// TapObserve accounts one validated observe batch the serving store has just
// ingested — the agentserver.ObserveTap hook, called inline on the serve
// path (or by hand after Server.Observe). The per-file work was done by the
// shard ingest: the tap drains the shards' drift counts, folds them into the
// detector, scores it and checks the cadence/drift trigger, allocating
// nothing. Epochs are only scheduled here (non-blocking channel kick);
// training never runs on the serve path.
//
// The server's day counter is ignored: inter-access gaps are measured in
// each file's own observed days. Under concurrent observe requests one tap
// may drain a racing request's samples too; none is lost or counted twice.
//
//minicost:hotpath
func (l *Learner) TapObserve(day int64, files []agentserver.FileObservation) {
	if len(files) == 0 {
		return
	}
	var batch agentserver.DriftCounts
	l.cfg.Serving.DrainDrift(&batch)
	l.tapMu.Lock()
	l.drift.target().Add(&batch)
	l.drift.endBatch()
	l.batches++
	batches := l.batches
	score := l.drift.score()
	l.lastScore = score
	fire := ""
	if l.pendingReason == "" {
		if l.cfg.DriftThreshold > 0 && score >= l.cfg.DriftThreshold && batches > l.lastEpochBatch {
			fire = reasonDrift
		} else if l.cfg.FinetuneEvery > 0 && batches-l.lastEpochBatch >= int64(l.cfg.FinetuneEvery) {
			fire = reasonCadence
		}
		l.pendingReason = fire
	}
	l.tapMu.Unlock()
	if fire != "" {
		if fire == reasonDrift {
			learnMet.driftTriggers.Inc()
		}
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	learnMet.observations.Add(float64(len(files)))
	learnMet.bufferFiles.Set(float64(l.cfg.Serving.TrackedFiles()))
	learnMet.driftScore.Set(score)
}

// snapshotTrace reconstructs training material from the serving store's
// rings: every file with at least minDays observed days (up to maxFiles of
// them) contributes its most recent Days cells, aligned as trace.Trace
// requires. Files whose ID hash falls in the holdout residue class
// (HashID mod holdoutEvery == 0, a ~1/k slice) land in the held-out trace
// the validation gate scores candidates on; the rest form the training
// trace. Keying the split on file identity — not on position in the snapshot
// — keeps membership stable as new files are tracked, so the gate never
// scores a candidate on files a prior epoch trained on. Either return is nil
// when no file qualifies for it.
func snapshotTrace(srv *agentserver.Server, minDays, holdoutEvery, maxFiles int) (train, holdout *trace.Trace) {
	h := srv.SnapshotHistory(minDays, maxFiles)
	train = &trace.Trace{Days: h.Days}
	holdout = &trace.Trace{Days: h.Days}
	for i, id := range h.IDs {
		dst := train
		if holdoutEvery > 0 && agentserver.HashID(id)%uint64(holdoutEvery) == 0 {
			dst = holdout
		}
		dst.Files = append(dst.Files, trace.FileMeta{ID: i, SizeGB: h.SizeGB[i]})
		dst.Reads = append(dst.Reads, h.Reads[i])
		dst.Writes = append(dst.Writes, h.Writes[i])
	}
	if len(train.Files) == 0 {
		train = nil
	}
	if len(holdout.Files) == 0 {
		holdout = nil
	}
	return train, holdout
}

// RunEpoch runs one fine-tune epoch synchronously: snapshot the store into
// train/holdout traces, resume the trainer for FinetuneSteps on the train
// slice, then offer the resulting candidate to the swap gate. Returns
// ErrNotEnoughData when the store cannot yet produce a training trace.
// Safe to call concurrently with taps and with the background loop (epochs
// serialize on an internal mutex).
func (l *Learner) RunEpoch() error {
	l.epochMu.Lock()
	defer l.epochMu.Unlock()
	sw := learnMet.epochLat.Start()
	start := time.Now() //minicost:allow-wallclock epoch-latency instrumentation, never feeds decisions

	l.tapMu.Lock()
	reason := l.pendingReason
	l.pendingReason = ""
	l.lastEpochBatch = l.batches
	l.tapMu.Unlock()
	if reason == "" {
		reason = reasonManual
	}

	train, holdout := snapshotTrace(l.cfg.Serving, l.cfg.MinTrainDays, l.cfg.HoldoutEvery, maxTrainFiles)
	if train == nil {
		sw.Stop()
		l.setError(ErrNotEnoughData.Error())
		return ErrNotEnoughData
	}
	src, err := rl.NewTraceSource(l.cfg.Model, train, l.histLen, l.cfg.Reward, l.cfg.Initial)
	if err != nil {
		sw.Stop()
		l.setError(err.Error())
		return err
	}
	// The rollback point: the serving weights, which the trainer holds
	// between epochs while an agent serves; none while Greedy does.
	var rbActor, rbCritic []float64
	l.stMu.Lock()
	agentServes := l.incumbent != nil
	l.stMu.Unlock()
	if agentServes {
		rbActor, rbCritic = l.cfg.Trainer.ParamVectors()
	}
	stats, err := l.cfg.Trainer.FineTune(src, l.cfg.FinetuneSteps)
	if err != nil {
		sw.Stop()
		l.setError(err.Error())
		return err
	}
	cand := l.cfg.Trainer.Snapshot()
	_, offerErr := l.offer(cand, holdout, rbActor, rbCritic)

	// The epoch consumed the drift signal: fold the current window into the
	// baseline so the score restarts from the just-(re)trained distribution
	// instead of re-triggering on the same shift.
	l.tapMu.Lock()
	l.drift.rebaseline()
	l.tapMu.Unlock()

	elapsed := time.Since(start).Seconds() //minicost:allow-wallclock epoch-latency instrumentation, never feeds decisions
	sw.Stop()
	learnMet.epochs.Inc()

	l.stMu.Lock()
	l.st.Epochs++
	l.st.LastEpochReason = reason
	l.st.LastEpochSteps = stats.Steps
	l.st.LastEpochSeconds = elapsed
	l.st.LastTrainFiles = train.NumFiles()
	if holdout != nil {
		l.st.LastHoldoutFiles = holdout.NumFiles()
	} else {
		l.st.LastHoldoutFiles = 0
	}
	l.stMu.Unlock()
	return offerErr
}

// offer runs the validation gate on a candidate and either hot-swaps it
// into serving (checkpointing the trainer afterwards) or rolls the trainer
// back to the pre-epoch weights rbActor, rbCritic (nil while Greedy serves:
// nothing to roll back to). Returns whether the candidate was swapped in.
func (l *Learner) offer(cand *rl.Agent, holdout *trace.Trace, rbActor, rbCritic []float64) (bool, error) {
	l.stMu.Lock()
	inc := l.incumbent
	l.stMu.Unlock()
	evidence := holdout != nil && holdout.NumFiles() > 0
	if l.cfg.SwapGate && inc == nil && !evidence {
		l.reject(rbActor, rbCritic)
		return false, nil
	}
	if l.cfg.SwapGate && evidence {
		var incumbent policy.Assigner = policy.Greedy{}
		if inc != nil {
			incumbent = policy.RL{Agent: inc, HistLen: l.histLen}
		}
		board, err := policy.Score(l.cfg.Model, holdout, l.cfg.Initial, 0,
			policy.RL{Agent: cand, HistLen: l.histLen}, incumbent)
		if err != nil {
			l.rollback(rbActor, rbCritic)
			l.setError("gate eval: " + err.Error())
			return false, err
		}
		candRow, incRow := board[0], board[1]
		dis := disagreement(candRow.Plan, incRow.Plan)
		learnMet.disagreement.Set(dis)
		l.stMu.Lock()
		l.st.LastCandidateCost = candRow.Total.Total()
		l.st.LastIncumbentCost = incRow.Total.Total()
		l.st.LastDisagreement = dis
		l.stMu.Unlock()
		if candRow.Total.Total() > incRow.Total.Total()*(1+l.cfg.SwapMargin) {
			// Candidate regresses the held-out cost: reject, keep the
			// incumbent serving, and roll the trainer back so the failed
			// update does not compound into the next epoch.
			l.reject(rbActor, rbCritic)
			return false, nil
		}
	}
	if err := l.cfg.Serving.UpdateAgent(cand); err != nil {
		l.rollback(rbActor, rbCritic)
		l.setError("swap: " + err.Error())
		return false, err
	}
	learnMet.swaps.Inc()
	l.stMu.Lock()
	l.incumbent = cand
	l.st.Swaps++
	l.st.LastError = ""
	l.ckptSeq++
	seq := l.ckptSeq
	l.stMu.Unlock()
	if l.cfg.CheckpointDir != "" {
		path, err := writeCheckpoint(l.cfg.CheckpointDir, seq, l.cfg.CheckpointKeep, l.cfg.Trainer)
		if err != nil {
			l.setError(err.Error())
			return true, err
		}
		learnMet.checkpoints.Inc()
		l.stMu.Lock()
		l.st.Checkpoints++
		l.st.LastCheckpoint = path
		l.stMu.Unlock()
	}
	return true, nil
}

// reject counts a candidate the gate refused and rolls the trainer back.
func (l *Learner) reject(actor, critic []float64) {
	l.rollback(actor, critic)
	learnMet.swapsRejected.Inc()
	l.stMu.Lock()
	l.st.SwapsRejected++
	l.st.LastError = ""
	l.stMu.Unlock()
}

// rollback restores the trainer's pre-epoch weights; a no-op without them
// (Greedy serves).
func (l *Learner) rollback(actor, critic []float64) {
	if actor == nil {
		return
	}
	// The vectors came from ParamVectors on the same trainer, so the only
	// failure mode is a concurrent architecture change, which cannot happen.
	_ = l.cfg.Trainer.SetParamVectors(actor, critic)
}

// disagreement is the fraction of files whose candidate and incumbent plans
// pick a different tier on any day — the train-vs-serve divergence gauge.
func disagreement(a, b costmodel.Assignment) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	diff := 0
	for i := range a {
		pa, pb := a[i], b[i]
		if len(pa) != len(pb) {
			diff++
			continue
		}
		for d := range pa {
			if pa[d] != pb[d] {
				diff++
				break
			}
		}
	}
	return float64(diff) / float64(len(a))
}

// Status snapshots the learner's externally visible state.
func (l *Learner) Status() Status {
	l.tapMu.Lock()
	batches := l.batches
	score := l.lastScore
	dims := l.drift.dimScores()
	calibrating := l.drift.calibrating
	l.tapMu.Unlock()
	l.stMu.Lock()
	st := l.st
	l.stMu.Unlock()
	st.Batches = batches
	st.DriftScore = score
	st.Calibrating = calibrating
	st.BufferFiles = l.cfg.Serving.TrackedFiles()
	st.BufferWindow = l.window
	st.DriftDims = make(map[string]float64, len(dims))
	for d, name := range driftDimNames {
		st.DriftDims[name] = dims[d]
	}
	return st
}

// Handler serves GET /v1/learner: the Status block as JSON.
func (l *Learner) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(l.Status())
	})
}

// setError records an epoch failure for Status.
func (l *Learner) setError(msg string) {
	l.stMu.Lock()
	l.st.LastError = msg
	l.stMu.Unlock()
}
