package agentserver

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
)

func testAgent() *rl.Agent {
	cfg := rl.NetConfig{HistLen: 7, Filters: 8, Kernel: 4, Stride: 1, Hidden: 16}
	return rl.NewAgent(cfg, cfg.BuildActor(rng.New(4)))
}

// settlingAgent has weights under which decisions settle: a file that moves
// tier stays there when re-decided on its new tier, so a population left
// alone reaches a steady state where plans decide only what was observed.
// (testAgent's flip some 70 % of feedWeek's files back and forth on every
// plan, which suits the equivalence tests and no test of sparseness.)
func settlingAgent() *rl.Agent {
	cfg := testAgent().Net
	return rl.NewAgent(cfg, cfg.BuildActor(rng.New(11)))
}

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	s, err := New(testAgent(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL)
}

func obsv(id string, reads float64) FileObservation {
	return FileObservation{ID: id, SizeGB: 0.1, Reads: reads, Writes: reads * 0.01}
}

func TestObserveAndPlan(t *testing.T) {
	_, c := newTestServer(t)
	// Feed a week of observations for two files.
	for d := 0; d < 7; d++ {
		resp, err := c.Observe(&ObserveRequest{Files: []FileObservation{
			obsv("busy", 5000),
			obsv("idle", 0.001),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Accepted != 2 || resp.Tracked != 2 {
			t.Fatalf("observe resp %+v", resp)
		}
	}
	plan, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Files) != 2 {
		t.Fatalf("plan covers %d files", len(plan.Files))
	}
	// Sorted by id; every tier valid.
	if plan.Files[0].ID != "busy" || plan.Files[1].ID != "idle" {
		t.Fatalf("plan order %+v", plan.Files)
	}
	for _, f := range plan.Files {
		if _, err := pricing.ParseTier(f.Tier); err != nil {
			t.Fatalf("invalid tier %q", f.Tier)
		}
	}
	if plan.Day != 7 {
		t.Fatalf("plan day %d", plan.Day)
	}
	// Second plan: tiers were committed, so unchanged decisions must report
	// Changed=false.
	plan2, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range plan2.Files {
		if f.Tier == plan.Files[i].Tier && f.Changed {
			t.Fatalf("unchanged decision flagged as change: %+v", f)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TrackedFiles != 2 || stats.Observations != 14 || stats.PlansServed != 2 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestPlanBeforeObserveFails(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Plan(); err == nil {
		t.Fatal("plan without observations accepted")
	}
}

// TestPlanClock pins that a plan is timed once: /v1/stats reports the
// elapsed time the plan itself carried, over the wire and in process, and a
// refused plan leaves every plan clock and counter alone.
func TestPlanClock(t *testing.T) {
	reg := withMetrics(t)
	s, err := New(testAgent(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	before := reg.Snapshot()
	if _, err := s.BuildPlan(false); err == nil {
		t.Fatal("plan without observations accepted")
	}
	after := reg.Snapshot()
	const timer = "minicost_serve_plan_seconds"
	if got, was := after.Histogram(timer).Count, before.Histogram(timer).Count; got != was {
		t.Errorf("refused plan advanced %s from %d to %d", timer, was, got)
	}
	if st := s.Stats(); st.LastPlanMS != 0 || st.PlansServed != 0 || s.lastPlanAt.Load() != 0 {
		t.Errorf("refused plan left last_plan_ms=%v plans_served=%d last-plan time %d", st.LastPlanMS, st.PlansServed, s.lastPlanAt.Load())
	}

	feedWeek(t, s, 2000)
	wire, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); wire.ElapsedMS <= 0 || st.LastPlanMS != wire.ElapsedMS {
		t.Errorf("wire plan says elapsed_ms=%v, /v1/stats last_plan_ms=%v", wire.ElapsedMS, st.LastPlanMS)
	}
	direct, err := s.BuildPlan(true)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); direct.ElapsedMS <= 0 || st.LastPlanMS != direct.ElapsedMS {
		t.Errorf("BuildPlan says elapsed_ms=%v, /v1/stats last_plan_ms=%v", direct.ElapsedMS, st.LastPlanMS)
	}
	if got, was := reg.Snapshot().Histogram(timer).Count, after.Histogram(timer).Count; got != was+2 {
		t.Errorf("two plans advanced %s by %d", timer, got-was)
	}
}

func TestObserveValidation(t *testing.T) {
	s, err := New(testAgent(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	nan, inf := math.NaN(), math.Inf(1)
	for name, req := range map[string]*ObserveRequest{
		"empty":         {},
		"no-id":         {Files: []FileObservation{{SizeGB: 0.1}}},
		"zero-size":     {Files: []FileObservation{{ID: "x"}}},
		"negative-read": {Files: []FileObservation{{ID: "x", SizeGB: 0.1, Reads: -1}}},
		"nan-size":      {Files: []FileObservation{{ID: "x", SizeGB: nan}}},
		"inf-size":      {Files: []FileObservation{{ID: "x", SizeGB: inf}}},
		"nan-reads":     {Files: []FileObservation{{ID: "x", SizeGB: 0.1, Reads: nan}}},
		"inf-reads":     {Files: []FileObservation{{ID: "x", SizeGB: 0.1, Reads: inf}}},
		"nan-writes":    {Files: []FileObservation{{ID: "x", SizeGB: 0.1, Writes: nan}}},
		"inf-writes":    {Files: []FileObservation{{ID: "x", SizeGB: 0.1, Writes: inf}}},
		"neg-inf-reads": {Files: []FileObservation{{ID: "x", SizeGB: 0.1, Reads: math.Inf(-1)}}},
		// The bad entry rides behind a good one: nothing may be ingested.
		"bad-after-good": {Files: []FileObservation{obsv("ok", 1), {ID: "x", SizeGB: 0.1, Writes: nan}}},
		"oversized-id":   {Files: []FileObservation{obsv("ok", 1), obsv(strings.Repeat("x", maxIDBytes+1), 1)}},
	} {
		// The client cannot even encode a non-finite number, so the rule is
		// also checked where in-process callers (the learner's replay, the
		// benchmark oracle) enter.
		if _, err := s.Observe(req); err == nil {
			t.Errorf("%s accepted by Server.Observe", name)
		}
		if _, err := c.Observe(req); err == nil {
			t.Errorf("%s accepted over HTTP", name)
		}
	}
	// Anything but whitespace after the request object makes the body bad
	// JSON. (The json.Decoder the handler called before DecodeObserve stopped
	// reading at the object's end and ingested such bodies.)
	const one = `{"files":[{"id":"x","size_gb":0.1,"reads":1,"writes":0}]}`
	for _, body := range []string{one + " garbage", one + one, one + "]"} {
		resp, err := http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "bad json") {
			t.Errorf("body with trailing data answered %d %s, want 400 bad json", resp.StatusCode, msg)
		}
	}
	if got := s.Stats().TrackedFiles; got != 0 {
		t.Fatalf("rejected batches left %d tracked files", got)
	}
	// The ID limit is inclusive, and trailing whitespace is not data.
	atLimit := `{"files":[{"id":"` + strings.Repeat("x", maxIDBytes) + `","size_gb":0.1}]}` + " \n"
	resp, err := http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader(atLimit))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observation with a %d-byte id answered %d, want 200", maxIDBytes, resp.StatusCode)
	}
}

func TestHTTPMethodsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	// Wrong methods rejected.
	resp, err = http.Get(ts.URL + "/v1/observe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET observe = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST plan = %d", resp.StatusCode)
	}
	// Malformed JSON rejected.
	resp, err = http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json = %d", resp.StatusCode)
	}
}

func TestConcurrentObserveAndPlan(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Observe(&ObserveRequest{Files: []FileObservation{obsv("seed", 1)}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					if _, err := c.Observe(&ObserveRequest{Files: []FileObservation{
						obsv("seed", float64(i)),
						obsv("other", 100),
					}}); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := c.Plan(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShardWindowRing pins the ring-buffer window semantics: oldest-first
// order once full, left-padding with the first observed value while
// filling, and all-zeros before any observation — the same at the serving
// ring length and at a learner's longer one.
func TestShardWindowRing(t *testing.T) {
	for _, ringLen := range []int{7, 14} {
		sh := newShard(7)
		if ringLen != 7 {
			sh.attachLearner(ringLen)
		}
		slot := sh.addSlot("f")
		sh.setInitialTier(slot, pricing.Hot)
		rs := make([]float64, 7)
		ws := make([]float64, 7)

		sh.windowInto(slot, rs, ws)
		for i := range rs {
			if rs[i] != 0 || ws[i] != 0 {
				t.Fatalf("ringLen=%d empty window rs=%v ws=%v", ringLen, rs, ws)
			}
		}

		// Two observations: window left-pads with the first value.
		sh.ingestOne(slot, 0.1, 5, 50)
		sh.ingestOne(slot, 0.1, 6, 60)
		sh.windowInto(slot, rs, ws)
		wantR := []float64{5, 5, 5, 5, 5, 5, 6}
		wantW := []float64{50, 50, 50, 50, 50, 50, 60}
		for i := range wantR {
			if rs[i] != wantR[i] || ws[i] != wantW[i] {
				t.Fatalf("ringLen=%d partial window rs=%v ws=%v", ringLen, rs, ws)
			}
		}

		// Observations 3..v through the ring: only the trailing 7 reach the
		// window, oldest first — checked as the ring fills, when it is
		// exactly full, and after it has wrapped (at either length).
		for v := 3.0; v <= 40; v++ {
			sh.ingestOne(slot, 0.1, v, v*10)
			if v < 10 {
				continue
			}
			sh.windowInto(slot, rs, ws)
			for i := 0; i < 7; i++ {
				want := v - 6 + float64(i)
				if rs[i] != want || ws[i] != want*10 {
					t.Fatalf("ringLen=%d after %v: window rs=%v ws=%v", ringLen, v, rs, ws)
				}
			}
		}
		if got := int(sh.fill[slot]); got != ringLen {
			t.Fatalf("fill = %d, want the ring length %d", got, ringLen)
		}
	}
}

// TestShardHashStable pins HashID — FNV-1a 64, whose values the learner's
// train/holdout membership and the shard routing of every existing ID rest
// on — and that shardOf respects the mask.
func TestShardHashStable(t *testing.T) {
	for id, want := range map[string]uint64{
		"":          0xcbf29ce484222325,
		"a":         0xaf63dc4c8601ec8c,
		"file-123":  0xb8c1ceb8c7c65d2e,
		"…unicode…": 0x671182bff7550bfe,
		"f00000042": 0xbc86bcd6e52a8777,
	} {
		if got := HashID(id); got != want {
			t.Fatalf("HashID(%q) = %#x, want %#x", id, got, want)
		}
		const mask = 15
		if got, want := shardOf(id, mask), uint32(want^(want>>32))&mask; got != want {
			t.Fatalf("shardOf(%q) = %d, want %d", id, got, want)
		}
	}
	if got := shardOf("anything", 0); got != 0 {
		t.Fatalf("mask 0 must map to shard 0, got %d", got)
	}
}

// TestNewWithConfigShardRounding pins power-of-two rounding and bounds.
func TestNewWithConfigShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {3, 4}, {16, 16}, {17, 32},
	} {
		s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: tc.in})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Shards(); got != tc.want {
			t.Errorf("Shards:%d rounded to %d, want %d", tc.in, got, tc.want)
		}
	}
	if _, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewWithConfig(testAgent(), pricing.Hot, Config{MaxObserveBytes: -1}); err == nil {
		t.Error("negative body cap accepted")
	}
}

// TestObserveDuplicateLastWins pins the in-batch duplicate contract: the
// later entry's measurement replaces the earlier one's for the day, the
// history window advances once, and the response counts the duplicates.
func TestObserveDuplicateLastWins(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.Observe(&ObserveRequest{Files: []FileObservation{
			obsv("dup", 1), obsv("solo", 7), obsv("dup", 2), obsv("dup", 3),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Tracked != 2 {
			t.Fatalf("shards=%d tracked %d, want 2", shards, resp.Tracked)
		}
		if resp.Duplicates != 2 {
			t.Fatalf("shards=%d duplicates %d, want 2", shards, resp.Duplicates)
		}
		// One observe day recorded for dup, holding the last value.
		sh := s.shards[shardOf("dup", s.shardMask)]
		slot := sh.index["dup"]
		if got := sh.fill[slot]; got != 1 {
			t.Fatalf("shards=%d dup fill %d, want 1 (window advanced once)", shards, got)
		}
		rs := make([]float64, s.histLen)
		ws := make([]float64, s.histLen)
		sh.windowInto(slot, rs, ws)
		if rs[s.histLen-1] != 3 {
			t.Fatalf("shards=%d dup last read %v, want 3 (last wins)", shards, rs[s.histLen-1])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, pricing.Hot); err == nil {
		t.Fatal("nil agent accepted")
	}
	if _, err := New(testAgent(), pricing.Tier(9)); err == nil {
		t.Fatal("invalid tier accepted")
	}
}

func BenchmarkPlan1kFiles(b *testing.B) {
	s, err := New(testAgent(), pricing.Hot)
	if err != nil {
		b.Fatal(err)
	}
	files := make([]FileObservation, 1000)
	for i := range files {
		files[i] = obsv("f"+itoa(i), float64(i))
	}
	for d := 0; d < 7; d++ {
		if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.BuildPlan(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanSparse is the plan view's layer attribution, in the shape of
// the end-to-end replan-sparse workload: 65 536 tracked files, 64 rotating
// files observed before every plan. wire is the /v1/plan handler's read-out
// into a reused buffer, struct is BuildPlan (a private copy of the entries),
// and rebuild adds one file per iteration, so every plan constructs the view
// from scratch — about what every plan cost before the view.
func BenchmarkPlanSparse(b *testing.B) {
	const files, touch = 65536, 64
	s, err := New(settlingAgent(), pricing.Hot)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]FileObservation, files)
	for i := range batch {
		batch[i] = obsv(fmt.Sprintf("f%08d", i), float64(i*13%997))
	}
	for d := 0; d < 7; d++ {
		if _, err := s.Observe(&ObserveRequest{Files: batch}); err != nil {
			b.Fatal(err)
		}
	}
	for settle := 0; settle < 4; settle++ {
		if _, err := s.BuildPlan(false); err != nil {
			b.Fatal(err)
		}
	}
	round := 0
	// dirty observes the next touch files, and extra ones when given.
	dirty := func(b *testing.B, extra ...FileObservation) {
		lo := (round * touch) % files
		round++
		if _, err := s.Observe(&ObserveRequest{Files: append(extra, batch[lo:lo+touch]...)}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("wire", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dirty(b)
			b.StartTimer()
			if buf, err = s.appendPlan(buf[:0], false); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("struct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dirty(b)
			b.StartTimer()
			if _, err := s.BuildPlan(false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dirty(b, obsv(fmt.Sprintf("f%08d-new%d", (i*7919)%files, s.TrackedFiles()), 1))
			b.StartTimer()
			if buf, err = s.appendPlan(buf[:0], false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
