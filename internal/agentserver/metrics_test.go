package agentserver

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"minicost/internal/obs"
	"minicost/internal/pricing"
)

// withMetrics enables the default registry for one test and restores the
// default-off state afterwards. Assertions use deltas: the registry is
// process-global and other tests in this binary may have advanced it.
func withMetrics(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })
	return reg
}

// TestRequestMetricsAdvance asserts the serving instruments move across an
// observe→plan round trip — the Snapshot-based counterpart of scraping
// /metrics, exercised under -race by `make check`.
func TestRequestMetricsAdvance(t *testing.T) {
	reg := withMetrics(t)
	_, c := newTestServer(t)
	before := reg.Snapshot()

	for d := 0; d < 3; d++ {
		if _, err := c.Observe(&ObserveRequest{Files: []FileObservation{
			obsv("a", 100), obsv("b", 1),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Plan(); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()

	delta := func(id string) float64 { return after.Counter(id) - before.Counter(id) }
	if got := delta(`minicost_http_requests_total{endpoint="observe",status="ok"}`); got != 3 {
		t.Errorf("observe ok requests delta = %v, want 3", got)
	}
	if got := delta(`minicost_http_requests_total{endpoint="plan",status="ok"}`); got != 1 {
		t.Errorf("plan ok requests delta = %v, want 1", got)
	}
	if got := delta("minicost_serve_observations_total"); got != 6 {
		t.Errorf("observations delta = %v, want 6", got)
	}
	if got := delta("minicost_serve_plans_total"); got != 1 {
		t.Errorf("plans delta = %v, want 1", got)
	}
	if got := after.Gauge("minicost_serve_tracked_files"); got != 2 {
		t.Errorf("tracked files = %v, want 2", got)
	}
	hPlan := after.Histogram("minicost_serve_plan_seconds")
	if hPlan.Count <= before.Histogram("minicost_serve_plan_seconds").Count {
		t.Error("plan generation histogram did not advance")
	}
	hLat := after.Histogram(`minicost_http_request_seconds{endpoint="plan"}`)
	if hLat.Count == 0 || math.IsNaN(hLat.Quantile(0.5)) {
		t.Errorf("plan latency histogram empty: %+v", hLat)
	}
	// Staleness is finite (and tiny) right after a plan.
	if st := after.Gauge("minicost_serve_plan_staleness_seconds"); math.IsNaN(st) || st < 0 || st > 60 {
		t.Errorf("plan staleness = %v", st)
	}
	// Failed requests land on the error counter, not ok.
	if _, err := c.Observe(&ObserveRequest{}); err == nil {
		t.Fatal("empty observe accepted")
	}
	final := reg.Snapshot()
	if got := final.Counter(`minicost_http_requests_total{endpoint="observe",status="error"}`) -
		before.Counter(`minicost_http_requests_total{endpoint="observe",status="error"}`); got != 1 {
		t.Errorf("observe error requests delta = %v, want 1", got)
	}
}

// TestRejectedBatchesCounted asserts every way an observe batch is refused
// advances its own minicost_serve_rejected_batches_total series, and only
// that one.
func TestRejectedBatchesCounted(t *testing.T) {
	reg := withMetrics(t)
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{MaxObserveBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	reasons := []string{"json", "too_large", "invalid"}
	for i, body := range []string{
		`{"files":[{"id":"x","size_gb":0.1}]} trailing`,
		`{"files":[{"id":"x","size_gb":0.1}]}` + strings.Repeat(" ", 256),
		`{"files":[{"id":"x","size_gb":-1}]}`,
	} {
		before := reg.Snapshot()
		resp, err := http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Fatalf("body %d accepted with %d", i, resp.StatusCode)
		}
		after := reg.Snapshot()
		for j, reason := range reasons {
			id := `minicost_serve_rejected_batches_total{reason="` + reason + `"}`
			want := 0.0
			if i == j {
				want = 1
			}
			if got := after.Counter(id) - before.Counter(id); got != want {
				t.Errorf("body %d: %s advanced by %v, want %v", i, id, got, want)
			}
		}
	}
	// In-process callers are counted where they enter.
	before := reg.Snapshot()
	if _, err := s.Observe(&ObserveRequest{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	id := `minicost_serve_rejected_batches_total{reason="invalid"}`
	if got := reg.Snapshot().Counter(id) - before.Counter(id); got != 1 {
		t.Errorf("Server.Observe rejection advanced %s by %v, want 1", id, got)
	}
}

func TestObserveRejectsNonJSONContentType(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/observe", "text/plain", strings.NewReader(`{"files":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain observe = %d, want 415", resp.StatusCode)
	}
	// JSON with parameters and +json suffixes stay accepted.
	for _, ct := range []string{"application/json; charset=utf-8", "application/ld+json"} {
		resp, err := http.Post(ts.URL+"/v1/observe", ct,
			strings.NewReader(`{"files":[{"id":"x","size_gb":0.1,"reads":1,"writes":0}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s observe = %d, want 200", ct, resp.StatusCode)
		}
	}
}

func TestObserveBodyCap(t *testing.T) {
	ts, _ := newTestServer(t)
	// A syntactically valid but oversized body: the cap must trip with 413
	// before the decoder finishes.
	var buf bytes.Buffer
	buf.WriteString(`{"files":[`)
	row := `{"id":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx","size_gb":0.1,"reads":1,"writes":1}`
	for buf.Len() < MaxObserveBytes+(1<<16) {
		buf.WriteString(row)
		buf.WriteString(",")
	}
	buf.WriteString(row + `]}`)
	resp, err := http.Post(ts.URL+"/v1/observe", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized observe = %d, want 413", resp.StatusCode)
	}
}

// TestObserveBodyCapConfigurable pins Config.MaxObserveBytes: a tiny cap
// trips 413 on a batch the default cap would accept.
func TestObserveBodyCapConfigurable(t *testing.T) {
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{MaxObserveBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body := `{"files":[` +
		`{"id":"aaaaaaaaaaaaaaaa","size_gb":0.1,"reads":1,"writes":1},` +
		`{"id":"bbbbbbbbbbbbbbbb","size_gb":0.1,"reads":1,"writes":1},` +
		`{"id":"cccccccccccccccc","size_gb":0.1,"reads":1,"writes":1}]}`
	resp, err := http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("capped observe = %d, want 413", resp.StatusCode)
	}
	// A batch under the cap still lands.
	resp, err = http.Post(ts.URL+"/v1/observe", "application/json",
		strings.NewReader(`{"files":[{"id":"x","size_gb":0.1,"reads":1,"writes":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small observe under custom cap = %d, want 200", resp.StatusCode)
	}
}

// TestShardStatsAndDirtyMetrics covers the per-shard stats fields and the
// duplicate/dirty instruments across an observe→plan→observe cycle.
func TestShardStatsAndDirtyMetrics(t *testing.T) {
	reg := withMetrics(t)
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	files := make([]FileObservation, 64)
	for i := range files {
		files[i] = obsv("f"+itoa(i), float64(i))
	}
	files = append(files, obsv("f0", 999)) // one in-batch duplicate
	resp, err := s.Observe(&ObserveRequest{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", resp.Duplicates)
	}
	after := reg.Snapshot()
	if got := after.Counter("minicost_serve_duplicate_observations_total") -
		before.Counter("minicost_serve_duplicate_observations_total"); got != 1 {
		t.Errorf("duplicate counter delta = %v, want 1", got)
	}
	if got := after.Gauge("minicost_serve_shards"); got != 4 {
		t.Errorf("shards gauge = %v, want 4", got)
	}

	st := s.Stats()
	if st.Shards != 4 {
		t.Fatalf("stats shards = %d, want 4", st.Shards)
	}
	if st.TrackedFiles != 64 || st.DirtyFiles != 64 {
		t.Fatalf("tracked=%d dirty=%d, want 64/64", st.TrackedFiles, st.DirtyFiles)
	}
	if st.MinShardFiles > st.MaxShardFiles || st.MaxShardFiles <= 0 {
		t.Fatalf("shard occupancy min=%d max=%d", st.MinShardFiles, st.MaxShardFiles)
	}
	if st.MaxShardDay != 1 || st.MinShardDay != 1 {
		t.Fatalf("shard days min=%d max=%d, want 1/1", st.MinShardDay, st.MaxShardDay)
	}
	if got := after.Gauge("minicost_serve_dirty_files"); got != 64 {
		t.Errorf("dirty gauge = %v, want 64", got)
	}

	// A plan drains the dirty set and counts its decisions. Files the plan
	// transitioned are re-queued (their tier feature changed), so the
	// post-plan dirty count equals the transition count.
	plan, err := s.BuildPlan(false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Decided != 64 || plan.Full {
		t.Fatalf("plan decided=%d full=%v, want 64/false", plan.Decided, plan.Full)
	}
	if got := s.Stats().DirtyFiles; got != plan.Transition {
		t.Fatalf("dirty after plan = %d, want transition count %d", got, plan.Transition)
	}
	drained := reg.Snapshot()
	if got := drained.Counter("minicost_serve_plan_decisions_total") -
		before.Counter("minicost_serve_plan_decisions_total"); got != 64 {
		t.Errorf("decision counter delta = %v, want 64", got)
	}
	if got := drained.Gauge("minicost_serve_dirty_files"); got != float64(plan.Transition) {
		t.Errorf("dirty gauge after plan = %v, want %d", got, plan.Transition)
	}

	// Observing one never-planned file dirties exactly one more.
	if _, err := s.Observe(&ObserveRequest{Files: []FileObservation{obsv("latecomer", 1)}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DirtyFiles; got != plan.Transition+1 {
		t.Fatalf("dirty after single observe = %d, want %d", got, plan.Transition+1)
	}
}

// TestPlanViewMetrics pins the two instruments of the plan view: a plan over
// an unchanged file set patches the view (no rebuild) and re-encodes only the
// blocks holding an entry it changed, and one new file costs exactly one
// rebuild — the signal that plans are O(tracked files) again.
func TestPlanViewMetrics(t *testing.T) {
	reg := withMetrics(t)
	s, err := NewWithConfig(settlingAgent(), pricing.Hot, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const files = 8 * planBlockLen
	feedWeek(t, s, files)
	const rebuilds, encoded = "minicost_serve_plan_rebuilds_total", "minicost_serve_plan_blocks_encoded_total"
	// round observes the given files, plans, and returns what the plan added
	// to the two counters.
	round := func(batch ...FileObservation) (plan *PlanResponse, dRebuilds, dEncoded float64) {
		t.Helper()
		before := reg.Snapshot()
		if len(batch) > 0 {
			if _, err := s.Observe(&ObserveRequest{Files: batch}); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := s.BuildPlan(false)
		if err != nil {
			t.Fatal(err)
		}
		after := reg.Snapshot()
		return plan, after.Counter(rebuilds) - before.Counter(rebuilds), after.Counter(encoded) - before.Counter(encoded)
	}
	if _, r, e := round(); r != 1 || e != 8 {
		t.Fatalf("first plan: %v rebuilds, %v blocks encoded, want 1 and all 8", r, e)
	}
	// Moved files are re-decided on their new tier until they stay put.
	for settling := 0; s.Stats().DirtyFiles > 0; settling++ {
		if settling == 8 {
			t.Fatalf("%d files still pending after %d plans with nothing observed", s.Stats().DirtyFiles, settling)
		}
		round()
	}
	// Sparse rounds: 16 files with neighbouring IDs go idle or busy. A block
	// is re-encoded exactly when one of its entries differs from the previous
	// plan's — a file moved tier, or its flag from the previous plan cleared.
	prev, _, _ := round()
	moved := 0
	for i := 0; i < 6; i++ {
		batch := make([]FileObservation, 16)
		for j := range batch {
			batch[j] = obsv("f"+itoa(3000+j), float64(5000*(i%2)))
		}
		plan, r, e := round(batch...)
		if plan.Decided < 16 || plan.Decided > 32 {
			t.Fatalf("sparse round %d decided %d files", i, plan.Decided)
		}
		if r != 0 {
			t.Errorf("sparse round %d rebuilt the view %v times", i, r)
		}
		differing := 0
		for lo := 0; lo < files; lo += planBlockLen {
			if !slices.Equal(plan.Files[lo:lo+planBlockLen], prev.Files[lo:lo+planBlockLen]) {
				differing++
			}
		}
		if e != float64(differing) || e > 2 {
			t.Errorf("sparse round %d re-encoded %v blocks; %d hold an entry that changed, and 16 neighbours span at most 2", i, e, differing)
		}
		moved += plan.Transition
		prev = plan
	}
	if moved == 0 {
		t.Fatal("no sparse round moved a file: the block counts above pin nothing")
	}
	// Nothing observed and nothing pending: nothing to encode.
	for s.Stats().DirtyFiles > 0 {
		round()
	}
	if plan, r, e := round(); plan.Decided != 0 || r != 0 || e != 0 {
		t.Errorf("idle plan decided %d, rebuilt %v, encoded %v blocks, want all zero", plan.Decided, r, e)
	}
	// One new file: its plan rebuilds, the next patches again.
	if _, r, e := round(obsv("f4000-new", 5)); r != 1 || e != 9 {
		t.Errorf("plan after one new file: %v rebuilds, %v blocks encoded, want 1 and all 9", r, e)
	}
	if _, r, _ := round(obsv("f4000-new", 6)); r != 0 {
		t.Errorf("plan after the rebuild rebuilt again (%v)", r)
	}
}

// TestWeightPacksMetric watches the serving weights being packed once per
// policy version: all-dirty plans, which decide every file in batches well
// past the packed-GEMM threshold on replicas taken from the pool again and
// again, add nothing; an UpdateAgent followed by a plan adds exactly one.
func TestWeightPacksMetric(t *testing.T) {
	reg := withMetrics(t)
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const files, packs = 400, "minicost_serve_weight_packs_total"
	round := func() float64 {
		t.Helper()
		before := reg.Snapshot()
		feedWeek(t, s, files) // every file observed again: an all-dirty plan
		plan, err := s.BuildPlan(false)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Decided != files {
			t.Fatalf("all-dirty plan decided %d of %d files", plan.Decided, files)
		}
		return reg.Snapshot().Counter(packs) - before.Counter(packs)
	}
	if d := round(); d != 1 {
		t.Fatalf("first plan saw %v weight packs, want the constructor's 1", d)
	}
	for i := 0; i < 5; i++ {
		if d := round(); d != 0 {
			t.Fatalf("all-dirty plan %d packed the weights %v times, want 0", i, d)
		}
	}
	if err := s.UpdateAgent(settlingAgent()); err != nil {
		t.Fatal(err)
	}
	if d := round(); d != 1 {
		t.Fatalf("plan after UpdateAgent saw %v weight packs, want exactly 1", d)
	}
	if d := round(); d != 0 {
		t.Fatalf("second plan after UpdateAgent packed again (%v)", d)
	}
}

// BenchmarkObsOverhead is the tentpole's benchmark guard: the same
// observe/plan server paths with the default registry disabled (the state
// every non-daemon binary runs in) versus enabled. The disabled rows are
// the regression gate — they must match pre-instrumentation cost, since
// each metric op is one atomic load.
func BenchmarkObsOverhead(b *testing.B) {
	reg := obs.Default()
	was := reg.Enabled()
	b.Cleanup(func() { reg.SetEnabled(was) })

	files := make([]FileObservation, 256)
	for i := range files {
		files[i] = FileObservation{ID: "f" + itoa(i), SizeGB: 0.1, Reads: float64(i), Writes: 1}
	}
	newServer := func(b *testing.B) *Server {
		s, err := New(testAgent(), pricing.Hot)
		if err != nil {
			b.Fatal(err)
		}
		for d := 0; d < 7; d++ {
			if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run("observe-"+mode.name, func(b *testing.B) {
			reg.SetEnabled(mode.enabled)
			s := newServer(b)
			req := &ObserveRequest{Files: files}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Observe(req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("plan-"+mode.name, func(b *testing.B) {
			reg.SetEnabled(mode.enabled)
			s := newServer(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.BuildPlan(true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
