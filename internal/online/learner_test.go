package online

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/obs"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
)

// withMetrics enables the default registry for one test and restores the
// default-off state afterwards (assertions use snapshot deltas: the registry
// is process-global).
func withMetrics(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })
	return reg
}

// newTestStack builds a serving server + learner pair over a tiny trainer,
// wired the way minicostd wires them (tap installed, weights aligned).
func newTestStack(t *testing.T, seed uint64, mut func(*Config)) (*agentserver.Server, *Learner, *rl.A3C) {
	t.Helper()
	tr := testTrainer(t, seed)
	srv, err := agentserver.NewWithConfig(tr.Snapshot(), pricing.Hot, agentserver.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Trainer:       tr,
		Serving:       srv,
		Model:         costmodel.New(pricing.Azure()),
		Reward:        mdp.DefaultReward(),
		Initial:       pricing.Hot,
		FinetuneSteps: 96,
		MinTrainDays:  2,
		HoldoutEvery:  4,
	}
	if mut != nil {
		mut(&cfg)
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetTap(l)
	return srv, l, tr
}

// TestLearnerCadenceEpochSwapsPolicy drives the tapped server directly: the
// Nth batch schedules a cadence epoch, RunEpoch fine-tunes on the stored
// window, and (gate off) the candidate swaps into serving with the weights
// moved.
func TestLearnerCadenceEpochSwapsPolicy(t *testing.T) {
	srv, l, tr := newTestStack(t, 11, func(c *Config) {
		c.FinetuneEvery = 3
		c.SwapGate = false
	})
	before, _ := tr.ParamVectors()
	for day := 1; day <= 3; day++ {
		observe(t, srv, synthBatch(24, day, 7, false)...)
	}
	l.tapMu.Lock()
	pending := l.pendingReason
	l.tapMu.Unlock()
	if pending != reasonCadence {
		t.Fatalf("pending reason %q after 3 batches, want %q", pending, reasonCadence)
	}
	if err := l.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	st := l.Status()
	if st.Epochs != 1 || st.LastEpochReason != reasonCadence || st.Swaps != 1 {
		t.Fatalf("status after cadence epoch: %+v", st)
	}
	if st.LastEpochSteps < 96 {
		t.Fatalf("epoch trained %d steps, want >= 96", st.LastEpochSteps)
	}
	if st.BufferFiles != 24 || st.BufferWindow != 16 || st.Batches != 3 {
		t.Fatalf("store accounting: %+v", st)
	}
	after, _ := tr.ParamVectors()
	moved := false
	for i := range after {
		if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("fine-tune epoch left the actor unchanged")
	}
}

// TestLearnerEpochWithoutDataReports: an epoch forced before the store has
// MinTrainDays of history fails with ErrNotEnoughData and surfaces it in
// Status without killing anything.
func TestLearnerEpochWithoutDataReports(t *testing.T) {
	_, l, _ := newTestStack(t, 13, nil)
	if err := l.RunEpoch(); err != ErrNotEnoughData {
		t.Fatalf("epoch on empty store: %v, want ErrNotEnoughData", err)
	}
	if st := l.Status(); st.LastError == "" || st.Epochs != 0 {
		t.Fatalf("status %+v", st)
	}
}

// TestNewMinTrainDays pins the training-history floor: a negative
// MinTrainDays is refused, the default is the decision window, and anything
// below 2 days is raised to 2 — a 1-day history holds no decision, so one
// observed day is not enough data for an epoch, and two are.
func TestNewMinTrainDays(t *testing.T) {
	srv, err := agentserver.NewWithConfig(testTrainer(t, 5).Snapshot(), pricing.Hot, agentserver.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Trainer: testTrainer(t, 5), Serving: srv, Model: costmodel.New(pricing.Azure()),
		Reward: mdp.DefaultReward(), Initial: pricing.Hot, MinTrainDays: -1}); err == nil {
		t.Fatal("negative MinTrainDays accepted")
	}
	for _, c := range []struct{ in, want int }{{0, testNet().HistLen}, {1, 2}, {2, 2}, {9, 9}, {40, 16}} {
		_, l, _ := newTestStack(t, 13, func(cfg *Config) { cfg.MinTrainDays = c.in })
		if got := l.cfg.MinTrainDays; got != c.want {
			t.Errorf("MinTrainDays %d became %d, want %d", c.in, got, c.want)
		}
	}

	srv, l, _ := newTestStack(t, 13, func(cfg *Config) {
		cfg.MinTrainDays = 1
		cfg.HoldoutEvery = -1
	})
	observe(t, srv, synthBatch(24, 1, 7, false)...)
	if err := l.RunEpoch(); err != ErrNotEnoughData {
		t.Fatalf("epoch on 1 observed day: %v, want ErrNotEnoughData", err)
	}
	observe(t, srv, synthBatch(24, 2, 7, false)...)
	if err := l.RunEpoch(); err != nil {
		t.Fatalf("epoch on 2 observed days: %v", err)
	}
}

// TestLearnerEndToEndDriftSwap is the issue's acceptance loop over real HTTP:
// synthetic traffic flows through /v1/observe into the tap, the workload
// shifts to the drifted regime, the PSI score crosses the threshold, the
// background loop fine-tunes, the gate passes, and the candidate hot-swaps
// into serving — all while concurrent /v1/plan traffic completes with zero
// errors — then the swap persists a checkpoint and /v1/learner reports it.
func TestLearnerEndToEndDriftSwap(t *testing.T) {
	ckptDir := t.TempDir()
	srv, l, _ := newTestStack(t, 19, func(c *Config) {
		c.DriftThreshold = 0.25
		c.SwapGate = true
		c.SwapMargin = 5 // generous: the e2e pins the loop, not the gate's strictness
		c.CheckpointDir = ckptDir
		c.CheckpointKeep = 3
	})
	calibrate(t, srv, 32)
	l.Start()
	defer l.Stop()

	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	mux.Handle("/v1/learner", l.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	client := agentserver.NewClient(ts.URL)

	const files = 32
	observe := func(day int, drifted bool) {
		t.Helper()
		if _, err := client.Observe(&agentserver.ObserveRequest{Files: synthBatch(files, day, 7, drifted)}); err != nil {
			t.Fatal(err)
		}
	}
	observe(1, false) // plans 409 until the first observation lands

	// Plan hammer: serving must answer throughout observes, fine-tunes, and
	// hot swaps without a single failed request.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var planErrs atomic.Int64
	var plans atomic.Int64
	var firstErr atomic.Value
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := client.Plan(); err != nil {
					firstErr.CompareAndSwap(nil, err.Error())
					planErrs.Add(1)
					return
				}
				plans.Add(1)
			}
		}()
	}

	for day := 2; day <= 6; day++ {
		observe(day, false)
	}
	// Shift the workload and keep observing until the loop has swapped.
	swapped := false
	for day := 7; day <= 60 && !swapped; day++ {
		observe(day, true)
		swapped = l.Status().Swaps >= 1
		time.Sleep(10 * time.Millisecond)
	}
	deadline := time.Now().Add(15 * time.Second)
	var st Status
	for {
		st = l.Status()
		if st.Swaps >= 1 && st.Checkpoints >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no swap after drift: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if planErrs.Load() != 0 {
		t.Fatalf("%d plan requests failed during the loop (first: %v)", planErrs.Load(), firstErr.Load())
	}
	if plans.Load() == 0 {
		t.Fatal("plan hammer never completed a request")
	}
	if st.LastEpochReason != reasonDrift {
		t.Fatalf("epoch reason %q, want %q", st.LastEpochReason, reasonDrift)
	}
	if st.Epochs < 1 || st.LastError != "" {
		t.Fatalf("status %+v", st)
	}
	latest, err := LatestCheckpoint(ckptDir)
	if err != nil || latest == "" {
		t.Fatalf("checkpoint after swap: (%q, %v)", latest, err)
	}

	// The learner endpoint serves the same status as JSON.
	resp, err := http.Get(ts.URL + "/v1/learner")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/learner: %s", resp.Status)
	}
	var remote Status
	if err := json.NewDecoder(resp.Body).Decode(&remote); err != nil {
		t.Fatal(err)
	}
	if remote.Epochs < 1 || remote.Swaps < 1 || len(remote.DriftDims) != agentserver.NumDriftDims {
		t.Fatalf("remote status %+v", remote)
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TrackedFiles != files {
		t.Fatalf("serving tracks %d files, want %d", stats.TrackedFiles, files)
	}
}

// craftAgent builds an agent with a hand-set parameter vector: all zeros
// decides tier 0 (Hot — argmax tie breaks low), and pushing the output bias
// of another tier (the vector's last NumTiers entries) makes that tier the
// unconditional decision.
func craftAgent(t *testing.T, tier pricing.Tier, bias float64) *rl.Agent {
	t.Helper()
	net := testNet()
	actor := net.BuildActor(rng.New(1))
	p := make([]float64, actor.NumParams())
	if bias != 0 {
		p[len(p)-pricing.NumTiers+int(tier)] = bias
	}
	actor.SetParamVector(p)
	return rl.NewAgent(net, actor)
}

// TestSwapGateRejectsPoisonedCandidate pins the validation gate: a candidate
// that regresses held-out cost is refused (counted in
// minicost_online_swaps_rejected_total), the incumbent keeps serving, and the
// trainer rolls back — all while concurrent plan traffic sees zero errors.
func TestSwapGateRejectsPoisonedCandidate(t *testing.T) {
	reg := withMetrics(t)
	model := costmodel.New(pricing.Azure())
	holdout := testTrace(t, 8, 10, 13, false) // hot workload: archiving it is ruinous

	hot := craftAgent(t, pricing.Hot, 0)
	poisoned := craftAgent(t, pricing.Archive, 5)
	board, err := policy.Score(model, holdout, pricing.Hot, 0,
		policy.RL{Agent: hot, HistLen: testNet().HistLen},
		policy.RL{Agent: poisoned, HistLen: testNet().HistLen})
	if err != nil {
		t.Fatal(err)
	}
	hotCost, poisonCost := board[0].Total.Total(), board[1].Total.Total()
	if poisonCost <= hotCost*1.01 {
		t.Fatalf("precondition: poisoned cost %v not above incumbent %v", poisonCost, hotCost)
	}

	// Align the trainer's actor with the incumbent so New snapshots it.
	tr := testTrainer(t, 17)
	_, critic := tr.ParamVectors()
	if err := tr.SetParamVectors(hot.ParamVector(), critic); err != nil {
		t.Fatal(err)
	}
	srv, err := agentserver.NewWithConfig(tr.Snapshot(), pricing.Hot, agentserver.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(Config{
		Trainer: tr, Serving: srv, Model: model,
		Reward: mdp.DefaultReward(), Initial: pricing.Hot,
		SwapGate: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := agentserver.NewClient(ts.URL)
	if _, err := client.Observe(&agentserver.ObserveRequest{Files: synthBatch(16, 0, 3, false)}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var planErrs atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := client.Plan(); err != nil {
					planErrs.Add(1)
					return
				}
			}
		}()
	}

	rbActor, rbCritic := tr.ParamVectors()
	before := reg.Snapshot()
	const offers = 5
	for i := 0; i < offers; i++ {
		swappedIn, err := l.offer(poisoned, holdout, rbActor, rbCritic)
		if err != nil {
			t.Fatal(err)
		}
		if swappedIn {
			t.Fatal("gate admitted a cost-regressing candidate")
		}
	}
	close(stop)
	wg.Wait()
	after := reg.Snapshot()

	if planErrs.Load() != 0 {
		t.Fatalf("%d plan requests failed while the gate was rejecting", planErrs.Load())
	}
	if d := after.Counter(MetricSwapsRejected) - before.Counter(MetricSwapsRejected); d != offers {
		t.Fatalf("%s delta = %v, want %d", MetricSwapsRejected, d, offers)
	}
	if d := after.Counter(MetricSwaps) - before.Counter(MetricSwaps); d != 0 {
		t.Fatalf("%s delta = %v, want 0", MetricSwaps, d)
	}
	st := l.Status()
	if st.SwapsRejected != offers || st.Swaps != 0 {
		t.Fatalf("status %+v", st)
	}
	if st.LastCandidateCost <= st.LastIncumbentCost {
		t.Fatalf("gate evidence not recorded: %+v", st)
	}
	if st.LastDisagreement == 0 {
		t.Fatal("always-Hot vs always-Archive must disagree")
	}
	gotA, gotC := tr.ParamVectors()
	bitwiseEq(t, "rolled-back actor", gotA, rbActor)
	bitwiseEq(t, "rolled-back critic", gotC, rbCritic)
}

// TestTapObserveNoAllocs is the hot-path gate: the tap — drain the shards'
// drift counts, fold, score, check the trigger — performs zero allocations.
func TestTapObserveNoAllocs(t *testing.T) {
	srv, l, _ := newTestStack(t, 23, func(c *Config) {
		c.DriftThreshold = 0.25 // exercise the scoring branch of the trigger
	})
	srv.SetTap(nil) // tapped by hand below, the way the benchmark replays it
	files := synthBatch(64, 0, 9, false)
	observe(t, srv, files...)
	day := int64(0)
	avg := testing.AllocsPerRun(100, func() {
		day++
		l.TapObserve(day, files)
	})
	if avg != 0 {
		t.Fatalf("TapObserve allocates %v per batch, want 0", avg)
	}
	if st := l.Status(); st.Batches != 101 || st.Calibrating {
		t.Fatalf("taps not accounted: %+v", st)
	}
}

// TestNewSizesTheServingStore: online.New sizes the store's rings — the
// learner's window, not the decision window — and refuses a server that
// already tracks files, since there is no ring re-layout.
func TestNewSizesTheServingStore(t *testing.T) {
	srv, l, _ := newTestStack(t, 37, nil)
	for day := 1; day <= 20; day++ {
		observe(t, srv, synthBatch(4, day, 7, false)...)
	}
	if h := srv.SnapshotHistory(1, 8); h.Days != 16 || l.Status().BufferWindow != 16 {
		t.Fatalf("ring keeps %d days, status reports %d; want max(2×histLen, 16) = 16", h.Days, l.Status().BufferWindow)
	}
	_, err := New(Config{
		Trainer: testTrainer(t, 37), Serving: srv, Model: costmodel.New(pricing.Azure()),
		Reward: mdp.DefaultReward(), Initial: pricing.Hot,
	})
	if err == nil {
		t.Fatal("New accepted a serving store that already tracks files")
	}
}

// TestLearnerDeterministicGivenSeed runs two identical stacks through the
// same observe sequence and a fine-tune epoch each: trainer parameters and the
// drift score must come out bitwise identical (the determinism invariant the
// vet suite's analyzer enforces statically, checked dynamically here).
func TestLearnerDeterministicGivenSeed(t *testing.T) {
	run := func() ([]float64, []float64, float64) {
		srv, l, tr := newTestStack(t, 42, func(c *Config) {
			c.FinetuneEvery = 4
			c.SwapGate = true
			c.SwapMargin = 5
		})
		calibrate(t, srv, 24)
		for day := 1; day <= 4; day++ {
			observe(t, srv, synthBatch(24, day, 7, false)...)
		}
		if err := l.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		for day := 5; day <= 8; day++ {
			observe(t, srv, synthBatch(24, day, 7, true)...)
		}
		a, c := tr.ParamVectors()
		return a, c, l.Status().DriftScore
	}
	a1, c1, s1 := run()
	a2, c2, s2 := run()
	bitwiseEq(t, "actor", a2, a1)
	bitwiseEq(t, "critic", c2, c1)
	if math.Float64bits(s1) != math.Float64bits(s2) {
		t.Fatalf("drift score diverged: %v vs %v", s1, s2)
	}
}

// TestLearnerSeedsCheckpointSeqFromDir: New on a reused checkpoint directory
// resumes the sequence counter from the newest retained file, so the first
// post-restart checkpoint sorts after — not below — the prior run's.
func TestLearnerSeedsCheckpointSeqFromDir(t *testing.T) {
	dir := t.TempDir()
	tr := testTrainer(t, 31)
	for seq := int64(6); seq <= 7; seq++ {
		if _, err := writeCheckpoint(dir, seq, 5, tr); err != nil {
			t.Fatal(err)
		}
	}
	_, l, _ := newTestStack(t, 31, func(c *Config) {
		c.CheckpointDir = dir
	})
	l.stMu.Lock()
	seq := l.ckptSeq
	l.stMu.Unlock()
	if seq != 7 {
		t.Fatalf("ckptSeq seeded to %d, want 7 (max in dir)", seq)
	}
}

// TestStopWithoutStart: Stop on a learner whose loop never ran must return
// immediately (not deadlock on the loop's done channel), and both Start and
// Stop are idempotent.
func TestStopWithoutStart(t *testing.T) {
	_, l, _ := newTestStack(t, 29, nil)
	done := make(chan struct{})
	go func() {
		l.Stop()
		l.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop without Start deadlocked")
	}
	l.Start()
	l.Start() // second call must not launch a second loop
	l.Stop()
	l.Stop() // and repeated Stop after shutdown stays safe
}

// TestGreedyIncumbentGate: on a server that serves policy.Greedy
// (agentserver.NewGreedy, minicostd without a checkpoint), Greedy is the
// gate's incumbent row. An epoch whose candidate bills more than Greedy on
// the holdout is rejected and leaves the trainer where the epoch took it —
// no agent serves, so there are no weights to roll back to — while Greedy
// keeps serving; an offer without a holdout is rejected too; a candidate
// that bills no more than Greedy swaps in, the server reports the agent, and
// the trainer is checkpointed.
func TestGreedyIncumbentGate(t *testing.T) {
	model := costmodel.New(pricing.Azure())
	srv, err := agentserver.NewGreedy(model, testNet().HistLen, pricing.Hot, agentserver.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Start the trainer on always-Archive weights, which a short epoch on a
	// hot workload does not repair.
	tr := testTrainer(t, 17)
	_, critic := tr.ParamVectors()
	if err := tr.SetParamVectors(craftAgent(t, pricing.Archive, 5).ParamVector(), critic); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, err := New(Config{
		Trainer: tr, Serving: srv, Model: model,
		Reward: mdp.DefaultReward(), Initial: pricing.Hot,
		FinetuneSteps: 96, MinTrainDays: 2, HoldoutEvery: 4,
		SwapGate: true, CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetTap(l)
	for day := 1; day <= 3; day++ {
		observe(t, srv, synthBatch(24, day, 7, false)...)
	}
	before, _ := tr.ParamVectors()
	if err := l.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	st := l.Status()
	if st.LastHoldoutFiles == 0 || st.LastCandidateCost <= st.LastIncumbentCost {
		t.Fatalf("precondition: the epoch's candidate must bill more than Greedy on a holdout: %+v", st)
	}
	if st.Swaps != 0 || st.SwapsRejected != 1 || srv.AgentServing() {
		t.Fatalf("a candidate dearer than Greedy was not rejected: %+v, agent serving %v", st, srv.AgentServing())
	}
	after, _ := tr.ParamVectors()
	moved := false
	for i := range after {
		moved = moved || math.Float64bits(after[i]) != math.Float64bits(before[i])
	}
	if !moved {
		t.Fatal("the rejected epoch rolled the trainer back, or never trained it")
	}
	if _, err := srv.BuildPlan(false); err != nil {
		t.Fatal(err)
	}

	hot := craftAgent(t, pricing.Hot, 0)
	if swapped, err := l.offer(hot, nil, nil, nil); err != nil || swapped {
		t.Fatalf("offer without a holdout swapped %v (%v); want a rejection", swapped, err)
	}
	if st := l.Status(); st.SwapsRejected != 2 || srv.AgentServing() {
		t.Fatalf("after the offer without a holdout: %+v, agent serving %v", st, srv.AgentServing())
	}

	// Busy files: Greedy keeps them Hot, so always-Hot bills exactly
	// Greedy's bill.
	busy := testTrace(t, 8, 10, 13, false)
	for i := range busy.Reads {
		for d := range busy.Reads[i] {
			busy.Reads[i][d] = 1e5
		}
	}
	board, err := policy.Score(model, busy, pricing.Hot, 0, policy.Greedy{}, policy.RL{Agent: hot})
	if err != nil {
		t.Fatal(err)
	}
	if g, h := board[0].Total.Total(), board[1].Total.Total(); h > g {
		t.Fatalf("precondition: always-Hot bills %v, Greedy %v", h, g)
	}
	if swapped, err := l.offer(hot, busy, nil, nil); err != nil || !swapped {
		t.Fatalf("a candidate no dearer than Greedy was not swapped in (%v): %+v", err, l.Status())
	}
	st = l.Status()
	if st.Swaps != 1 || st.Checkpoints != 1 || !srv.AgentServing() || !srv.Stats().AgentServing {
		t.Fatalf("after the swap: %+v, agent serving %v", st, srv.AgentServing())
	}
	if latest, err := LatestCheckpoint(dir); err != nil || latest != st.LastCheckpoint {
		t.Fatalf("checkpoint after the swap: (%q, %v), status names %q", latest, err, st.LastCheckpoint)
	}
}
