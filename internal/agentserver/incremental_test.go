package agentserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
)

// planKey flattens a plan's assignment for bitwise comparison.
func planKey(p *PlanResponse) string {
	var out strings.Builder
	for _, f := range p.Files {
		out.WriteString(f.ID + "=" + f.Tier)
		if f.Changed {
			out.WriteByte('*')
		}
		out.WriteByte(';')
	}
	return out.String()
}

// planTwins is the fixture of TestIncrementalPlanEqualsFull: four servers
// with identical weights fed identical observation streams. inc plans
// incrementally and ful re-decides everything; long keeps a learner's rings
// (2×histLen cells per file) — its plans and feature rows must equal inc's
// bit for bit, since only the most recent histLen cells reach a row; wire
// plans incrementally too but is read the way a client reads it, through
// Handler().
type planTwins struct {
	t                    *testing.T
	inc, ful, long, wire *Server
	h                    http.Handler
	r                    *rng.RNG
	prev                 map[string]PlanEntry // every file's entry in the latest plan that had it
	unflagged            int                  // entries seen Changed in one plan and not in the next
}

// A nil agent builds Greedy servers (NewGreedy) over testAgent's window.
func newPlanTwins(t *testing.T, shards int, agent func() *rl.Agent) *planTwins {
	t.Helper()
	tw := &planTwins{t: t, r: rng.New(uint64(9000 + shards)), prev: map[string]PlanEntry{}}
	server := func() *Server {
		cfg := Config{Shards: shards}
		var s *Server
		var err error
		if agent == nil {
			s, err = NewGreedy(costmodel.New(pricing.Azure()), testAgent().Net.HistLen, pricing.Hot, cfg)
		} else {
			s, err = NewWithConfig(agent(), pricing.Hot, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tw.inc, tw.ful, tw.long, tw.wire = server(), server(), server(), server()
	if err := tw.long.AttachLearner(2 * tw.long.histLen); err != nil {
		t.Fatal(err)
	}
	tw.h = tw.wire.Handler()
	return tw
}

func (tw *planTwins) servers() []*Server { return []*Server{tw.inc, tw.ful, tw.long, tw.wire} }

func (tw *planTwins) observe(files []FileObservation) {
	tw.t.Helper()
	for _, s := range tw.servers() {
		if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
			tw.t.Fatal(err)
		}
	}
}

// updateAgent swaps the same fresh weights into every server.
func (tw *planTwins) updateAgent(seed uint64) {
	tw.t.Helper()
	cfg := testAgent().Net
	for _, s := range tw.servers() {
		if err := s.UpdateAgent(rl.NewAgent(cfg, cfg.BuildActor(rng.New(seed)))); err != nil {
			tw.t.Fatal(err)
		}
	}
}

// batch draws one day's observations for the given IDs.
func (tw *planTwins) batch(ids []string) []FileObservation {
	files := make([]FileObservation, 0, len(ids))
	for _, id := range ids {
		files = append(files, FileObservation{
			ID:     id,
			SizeGB: 0.05 + tw.r.Float64(),
			Reads:  tw.r.Float64() * 2000,
			Writes: tw.r.Float64() * 20,
		})
	}
	return files
}

// fileIDs names files lo..hi-1 the way the interleavings always have.
func fileIDs(lo, hi int) []string {
	ids := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ids = append(ids, "f"+itoa(i))
	}
	return ids
}

// comparePlans takes one plan from every server and holds them to each
// other and to their oracles.
func (tw *planTwins) comparePlans(step string) {
	t := tw.t
	t.Helper()
	pi, err := tw.inc.BuildPlan(false)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := tw.ful.BuildPlan(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pi.Files) != len(pf.Files) {
		t.Fatalf("%s: incremental covers %d files, full %d", step, len(pi.Files), len(pf.Files))
	}
	if ki, kf := planKey(pi), planKey(pf); ki != kf {
		t.Fatalf("%s: incremental plan diverged from full\nincremental: %.200s\nfull:        %.200s", step, ki, kf)
	}
	if pi.Transition != pf.Transition {
		t.Fatalf("%s: transitions %d vs %d", step, pi.Transition, pf.Transition)
	}
	if !pi.Full && pi.Decided > len(pi.Files) {
		t.Fatalf("%s: incremental decided %d of %d files", step, pi.Decided, len(pi.Files))
	}
	pl, err := tw.long.BuildPlan(false)
	if err != nil {
		t.Fatal(err)
	}
	// Every plan these interleavings produce goes on the wire byte
	// for byte as encoding/json would write it.
	for _, p := range []*PlanResponse{pi, pf, pl} {
		checkPlanEncoding(t, p)
	}
	if kl, ki := planKey(pl), planKey(pi); kl != ki || pl.Decided != pi.Decided {
		t.Fatalf("%s: plan over 2×histLen rings diverged (decided %d vs %d)\nlong:  %.200s\nshort: %.200s",
			step, pl.Decided, pi.Decided, kl, ki)
	}
	// Same stream, same shard count: slots line up, so the
	// feature rows compare position by position.
	fd := mdp.FeatureDim(tw.inc.histLen)
	rowI, rowL := make([]float64, fd), make([]float64, fd)
	for si, sh := range tw.inc.shards {
		for slot := range sh.ids {
			sh.featureInto(int32(slot), rowI)
			tw.long.shards[si].featureInto(int32(slot), rowL)
			for k := range rowI {
				if math.Float64bits(rowI[k]) != math.Float64bits(rowL[k]) {
					t.Fatalf("%s: feature row of %q differs at %d: %v vs %v", step, sh.ids[slot], k, rowI[k], rowL[k])
				}
			}
		}
	}

	// The same plan as a client reads it: the handler joins the view's cached
	// blocks, and the body must be the one AppendPlan writes for the entries
	// the struct path returned.
	rec := httptest.NewRecorder()
	tw.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
		t.Fatalf("%s: GET /v1/plan answered %d, Content-Length %q for %d bytes",
			step, rec.Code, rec.Header().Get("Content-Length"), len(body))
	}
	var pw PlanResponse
	if err := json.Unmarshal(body, &pw); err != nil {
		t.Fatalf("%s: wire plan does not decode: %v", step, err)
	}
	if again := AppendPlan(nil, &pw); !bytes.Equal(again, body) {
		t.Fatalf("%s: wire plan does not round-trip\nbody:    %.300q\nre-made: %.300q", step, body, again)
	}
	if !slices.Equal(pw.Files, pi.Files) {
		t.Fatalf("%s: wire plan's files diverged from BuildPlan's\nwire:   %.200s\nstruct: %.200s", step, planKey(&pw), planKey(pi))
	}
	if pw.Day != pi.Day || pw.Decided != pi.Decided || pw.Transition != pi.Transition || pw.Full != pi.Full {
		t.Fatalf("%s: wire plan day/decided/transitions/full %d/%d/%d/%v, struct path %d/%d/%d/%v", step,
			pw.Day, pw.Decided, pw.Transition, pw.Full, pi.Day, pi.Decided, pi.Transition, pi.Full)
	}

	for _, s := range tw.servers() {
		checkViewAgainstConstructor(t, step, s)
	}

	// Changed means "this plan moved the file off the tier the previous plan
	// left it on" (the initial tier for a file no plan has seen), so a flag
	// one plan sets is gone in the next unless the file moved again.
	for _, e := range pi.Files {
		was, seen := tw.prev[e.ID]
		if !seen {
			was.Tier = pricing.Hot.String()
		}
		if e.Changed != (e.Tier != was.Tier) {
			t.Fatalf("%s: %q went %s → %s with changed=%v", step, e.ID, was.Tier, e.Tier, e.Changed)
		}
		if was.Changed && !e.Changed {
			tw.unflagged++
		}
		tw.prev[e.ID] = e
	}
}

// checkViewAgainstConstructor holds a server's plan view, as the last plan
// left it, to the from-scratch construction every plan used to be: the same
// entries in the same order, an index that finds every slot, no stale block,
// and every block the bytes its entries encode to.
func checkViewAgainstConstructor(t *testing.T, step string, s *Server) {
	t.Helper()
	s.planMu.Lock()
	defer s.planMu.Unlock()
	parts := make([][]PlanEntry, len(s.shards))
	slots := make([][]int32, len(s.shards))
	for si, sh := range s.shards {
		parts[si], slots[si] = sh.buildEntries(s.planEpoch)
	}
	want, pos := mergeEntries(parts, slots)
	v := &s.view
	if len(v.entries) != len(want) {
		t.Fatalf("%s: view holds %d entries, constructor %d", step, len(v.entries), len(want))
	}
	flagged := 0
	for i := range want {
		if v.entries[i] != want[i] {
			t.Fatalf("%s: view entry %d is %+v, constructor says %+v", step, i, v.entries[i], want[i])
		}
		if want[i].Changed {
			flagged++
		}
	}
	for si := range pos {
		if !slices.Equal(v.pos[si], pos[si]) {
			t.Fatalf("%s: view's index of shard %d diverged from the constructor's", step, si)
		}
	}
	if len(v.flagged) != flagged {
		t.Fatalf("%s: view lists %d flagged entries, %d are flagged", step, len(v.flagged), flagged)
	}
	for _, i := range v.flagged {
		if !v.entries[i].Changed {
			t.Fatalf("%s: view lists entry %d as flagged, it is not", step, i)
		}
	}
	if wantBlocks := (len(want) + planBlockLen - 1) / planBlockLen; len(v.blocks) != wantBlocks {
		t.Fatalf("%s: view holds %d blocks for %d entries, want %d", step, len(v.blocks), len(want), wantBlocks)
	}
	for b := range v.blocks {
		lo := b * planBlockLen
		hi := min(lo+planBlockLen, len(want))
		if v.stale[b] || !bytes.Equal(v.blocks[b], appendPlanEntries(nil, want[lo:hi])) {
			t.Fatalf("%s: block %d (stale=%v) is not its entries' encoding", step, b, v.stale[b])
		}
	}
}

// TestIncrementalPlanEqualsFull is the equivalence guarantee of incremental
// planning: an incremental plan (re-deciding only dirty files, serving the
// rest from the plan view) is bitwise identical to a full re-decision of the
// whole population, across mixed observe/plan interleavings and shard
// counts. This holds because DecideBatch rows are
// batch-composition-independent (the PR-1 bitwise contract) and committed
// tiers feed back into the features only for files the plan actually changed
// — which the commit re-dirties. After every plan the patched view is also
// held to its constructor and the handler's body to AppendPlan
// (planTwins.comparePlans).
func TestIncrementalPlanEqualsFull(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// testAgent's weights move most files on every plan, so nearly every
			// entry is patched each time.
			t.Run("interleaved", func(t *testing.T) { interleavedPlans(newPlanTwins(t, shards, testAgent)) })
			// Populations against the block grid: several blocks and a part of
			// one, exactly one block (one more file then opens a second of
			// length one), and a single file — under weights that settle, so
			// that sparse rounds are sparse and most blocks are served cached.
			for _, pop := range []int{2*planBlockLen + 300, planBlockLen, 1} {
				t.Run(fmt.Sprintf("files=%d", pop), func(t *testing.T) { blockPlans(newPlanTwins(t, shards, settlingAgent), pop) })
			}
			// Greedy servers (minicostd without a checkpoint), and in
			// blockPlans the swap to their first agent.
			t.Run("greedy/interleaved", func(t *testing.T) { interleavedPlans(newPlanTwins(t, shards, nil)) })
			t.Run("greedy/blocks", func(t *testing.T) { blockPlans(newPlanTwins(t, shards, nil), 2*planBlockLen+300) })
		})
	}
}

// interleavedPlans is a mixed interleaving over a small population: grow it,
// observe subsets, duplicate IDs, plan at every step.
func interleavedPlans(tw *planTwins) {
	pop := 120
	for d := 0; d < 3; d++ {
		tw.observe(tw.batch(fileIDs(0, pop)))
	}
	tw.comparePlans("after warmup")
	tw.comparePlans("repeat with nothing dirty")

	// Touch a subset: only those become dirty on inc.
	tw.observe(tw.batch(fileIDs(10, 40)))
	tw.comparePlans("after partial observe")

	// New files join mid-stream.
	tw.observe(tw.batch(fileIDs(0, pop+37)))
	pop += 37
	tw.comparePlans("after growth")

	// Duplicates inside one batch (last wins on every server).
	tw.observe(append(tw.batch(fileIDs(50, 60)), tw.batch(fileIDs(50, 55))...))
	tw.comparePlans("after duplicate batch")

	// Several observe days between plans — enough that the long rings
	// wrap too.
	for d := 0; d < 12; d++ {
		tw.observe(tw.batch(fileIDs(pop/2, pop)))
	}
	tw.comparePlans("after multi-day gap")
}

// blockPlans walks a population of pop files through what moves the plan
// view: the build, sparse patches, a rebuild when files arrive whose IDs sort
// between existing ones, patches again, and a policy swap that re-decides
// everything through the patch path.
func blockPlans(tw *planTwins, pop int) {
	// A few IDs AppendPlan cannot write verbatim, and some outside ASCII, sit
	// among the plain ones, so that cached blocks hold escaped entries. (All
	// valid UTF-8: the encoder repairs anything else, which no body can
	// round-trip.)
	ids := fileIDs(0, pop)
	for i, id := range []string{`f1"quoted\`, "f2<&>", "f3-naïve-é😀", "f4\u2028sep"} {
		if k := i * 7; k < pop {
			ids[k] = id
		}
	}
	for d := 0; d < 2; d++ {
		tw.observe(tw.batch(ids))
	}
	tw.comparePlans("after fill")
	tw.comparePlans("nothing observed since")
	sparse := func(round int) []string {
		touch := min(64, pop)
		lo := (round * touch) % pop
		return ids[lo:min(lo+touch, pop)]
	}
	for round := 0; round < 2; round++ {
		tw.observe(tw.batch(sparse(round)))
		tw.comparePlans(fmt.Sprintf("sparse round %d", round))
	}

	// Arrivals: "f<k>m" sorts behind every f<k>… already there, in the middle
	// of the population, so every block after it shifts.
	arrivals := make([]string, 0, 40)
	for k := 0; k < 40; k++ {
		arrivals = append(arrivals, "f"+itoa(1+k*pop/40)+"m")
	}
	tw.observe(tw.batch(append(arrivals, sparse(2)...)))
	ids = append(ids, arrivals...)
	pop = len(ids)
	tw.comparePlans("after arrivals")
	for round := 3; round < 5; round++ {
		tw.observe(tw.batch(sparse(round)))
		tw.comparePlans(fmt.Sprintf("sparse round %d", round))
	}

	tw.updateAgent(77)
	tw.comparePlans("after policy swap")
	tw.observe(tw.batch(sparse(5)))
	tw.comparePlans("sparse round 5")

	if pop > 64 && tw.unflagged == 0 {
		tw.t.Fatal("no entry was ever un-flagged: the interleaving never had a file change tier in one plan and keep it in the next")
	}
}

// TestConcurrentObserveAndPlanSharded hammers a multi-shard server with
// interleaved direct Observe/BuildPlan calls; run under -race by `make
// check`. Plans taken during the run only need to be well-formed; a final
// quiescent plan must equal a full re-decision.
func TestConcurrentObserveAndPlanSharded(t *testing.T) {
	s, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	feedWeek(t, s, 300)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w + 1))
			for i := 0; i < 15; i++ {
				if w%2 == 0 {
					files := make([]FileObservation, 40)
					for j := range files {
						files[j] = obsv("f"+itoa(int(r.Float64()*300)), r.Float64()*100)
					}
					if _, err := s.Observe(&ObserveRequest{Files: files}); err != nil {
						t.Error(err)
						return
					}
				} else {
					p, err := s.BuildPlan(i%4 == 0)
					if err != nil {
						t.Error(err)
						return
					}
					if len(p.Files) != 300 {
						t.Errorf("mid-run plan covers %d files, want 300", len(p.Files))
						return
					}
					for k := 1; k < len(p.Files); k++ {
						if p.Files[k-1].ID >= p.Files[k].ID {
							t.Errorf("plan not ID-sorted at %d: %q >= %q", k, p.Files[k-1].ID, p.Files[k].ID)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Quiescent: the store survived the hammering intact — every file
	// still tracked exactly once, a full plan re-decides all of them.
	if got := s.Stats().TrackedFiles; got != 300 {
		t.Fatalf("tracked %d files after run, want 300", got)
	}
	pf, err := s.BuildPlan(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Files) != 300 || pf.Decided != 300 {
		t.Fatalf("final full plan files=%d decided=%d, want 300/300", len(pf.Files), pf.Decided)
	}
	for _, f := range pf.Files {
		if _, err := pricing.ParseTier(f.Tier); err != nil {
			t.Fatalf("invalid tier %q in final plan", f.Tier)
		}
	}
}

// TestConcurrentPlansObservesAndSwaps runs everything that can touch the plan
// view at once, through the handler: observes of tracked files, observes that
// add files (so plans rebuild the view under load), two plan readers, and
// policy swaps. Run under -race by `make check`. Every plan body must decode,
// be strictly ID-sorted with valid tiers, and hold every file whose observe
// had been answered before the plan was asked for; plans run one at a time,
// so the replica pool never exceeds one plan's fan-out however many ask. A
// Greedy server runs the same load and takes its first agent mid-run.
func TestConcurrentPlansObservesAndSwaps(t *testing.T) {
	agent, err := NewWithConfig(testAgent(), pricing.Hot, Config{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := NewGreedy(costmodel.New(pricing.Azure()), testAgent().Net.HistLen, pricing.Hot, Config{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	concurrentPlansObservesAndSwaps(t, agent)
	concurrentPlansObservesAndSwaps(t, greedy)
}

func concurrentPlansObservesAndSwaps(t *testing.T, s *Server) {
	const seeded = 1500 // more than one block
	feedWeek(t, s, seeded)
	h := s.Handler()
	post := func(files []FileObservation) {
		body, err := json.Marshal(&ObserveRequest{Files: files})
		if err != nil {
			t.Error(err)
			return
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("observe answered %d: %s", rec.Code, rec.Body)
		}
	}

	// tracked lists the files known to be tracked: appended to only after the
	// observe that introduced the file has been answered.
	var mu sync.Mutex
	tracked := fileIDs(0, seeded)
	const rounds = 12
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ { // tracked files
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w + 1))
			for i := 0; i < rounds; i++ {
				files := make([]FileObservation, 48)
				for j := range files {
					files[j] = obsv("f"+itoa(int(r.Float64()*seeded)), r.Float64()*100)
				}
				post(files)
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // new files, sorting between the tracked ones
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ids := []string{"f" + itoa(100*i+w) + "n", "f" + itoa(100*i+50+w) + "n"}
				post([]FileObservation{obsv(ids[0], 10), obsv(ids[1], 1000)})
				mu.Lock()
				tracked = append(tracked, ids...)
				mu.Unlock()
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // plan readers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mu.Lock()
				before := tracked[:len(tracked):len(tracked)]
				mu.Unlock()
				target := "/v1/plan"
				if (i+w)%5 == 0 {
					target += "?full=1"
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				var p PlanResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &p); rec.Code != http.StatusOK || err != nil {
					t.Errorf("plan answered %d, decode: %v", rec.Code, err)
					return
				}
				have := make(map[string]bool, len(p.Files))
				for k, e := range p.Files {
					if k > 0 && p.Files[k-1].ID >= e.ID {
						t.Errorf("plan not strictly ID-sorted at %d: %q >= %q", k, p.Files[k-1].ID, e.ID)
						return
					}
					if _, err := pricing.ParseTier(e.Tier); err != nil {
						t.Errorf("invalid tier %q for %q", e.Tier, e.ID)
						return
					}
					have[e.ID] = true
				}
				for _, id := range before {
					if !have[id] {
						t.Errorf("plan of %d files lacks %q, tracked before it was asked for", len(p.Files), id)
						return
					}
				}
				if got, bound := s.Stats().Replicas, replicaBound(s); got > bound {
					t.Errorf("%d replicas with plans serialized, bound %d", got, bound)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // policy swaps
		defer wg.Done()
		cfg := testAgent().Net
		for i := 0; i < rounds/2; i++ {
			if err := s.UpdateAgent(rl.NewAgent(cfg, cfg.BuildActor(rng.New(uint64(200+i))))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Quiescent: the view a last plan leaves is the one its constructor makes.
	if _, err := s.BuildPlan(false); err != nil {
		t.Fatal(err)
	}
	checkViewAgainstConstructor(t, "after the run", s)
	if got, want := len(s.view.entries), seeded+4*rounds; got != want {
		t.Fatalf("view holds %d entries after the run, want %d", got, want)
	}
}

// TestSparsePlanAllocsIndependentOfPopulation pins what the plan view buys
// in allocations: a steady-state round — 16 tracked files observed, then the
// plan read out the way the handler reads it, into a reused buffer —
// allocates a small number of objects and bytes, neither growing with the
// tracked population (every plan used to allocate each shard's entry list and
// the merged one: 80 bytes per tracked file).
func TestSparsePlanAllocsIndependentOfPopulation(t *testing.T) {
	perRound := func(files int) (objects, bytes float64) {
		s, err := NewWithConfig(settlingAgent(), pricing.Hot, Config{Shards: 16})
		if err != nil {
			t.Fatal(err)
		}
		feedWeek(t, s, files)
		var buf []byte
		round := 0
		run := func() {
			batch := make([]FileObservation, 16)
			for j := range batch {
				batch[j] = obsv("f"+itoa((round*16+j)%files), float64(round))
			}
			round++
			if _, err := s.Observe(&ObserveRequest{Files: batch}); err != nil {
				t.Fatal(err)
			}
			if buf, err = s.appendPlan(buf[:0], false); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ { // the all-dirty first plan, then settle
			run()
		}
		const runs = 40
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects = testing.AllocsPerRun(runs, run)
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one more
	}
	const small, large = 2 * planBlockLen, 16 * planBlockLen
	so, sb := perRound(small)
	lo, lb := perRound(large)
	t.Logf("per sparse round: %v objects, %.0f bytes at %d files; %v objects, %.0f bytes at %d", so, sb, small, lo, lb, large)
	if so > 100 || lo > so+4 {
		t.Errorf("sparse round allocates %v objects at %d files and %v at %d: want a small count that does not grow", so, small, lo, large)
	}
	// One entry per tracked file would be 40 bytes × 14 336 more files.
	if lb > sb+float64(large-small) {
		t.Errorf("sparse round allocates %.0f bytes at %d files and %.0f at %d: it grows with the population", sb, small, lb, large)
	}
}
