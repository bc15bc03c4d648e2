package agentserver_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"minicost/internal/agentserver"
	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// The replay of TestServedEqualsSimulated: servedEarly files are tracked
// from day 0, so each day's observe batch is past the store's fan-out
// threshold (2048 files); servedLate more first arrive on day servedArrive.
// The windows wrap the serving rings (histLen cells) several times over.
const (
	servedDays   = 14
	servedEarly  = 2304
	servedLate   = 256
	servedArrive = 5
	servedSwap   = 8 // UpdateAgent runs after the plan that follows day 8's observe
)

// TestServedEqualsSimulated holds minicostd to the simulator: a generated
// trace replayed through the daemon's handler — one observe, then one plan,
// per day, both through the wire codec — must serve, file-day by file-day,
// the tiers the offline planner decides for the same agent and trace, and
// so bill exactly what the offline plan bills. Both follow mdp's decision
// rule: day d is decided from the file's observed days before d, and its
// first day is served in the initial tier.
//
// Without a swap the reference is policy.RL.Assign: on the whole trace for
// the files tracked from day 0, and on tr.Window(servedArrive, D) for the
// files that arrive then. With a hot swap (UpdateAgent) the reference is
// simulate, the rule spelled out with mdp's window and encoder and the
// agent's batched argmax; without a swap simulate must equal RL.Assign bit
// for bit, so it is the same decider. A server built by NewGreedy (minicostd
// without a checkpoint) is held the same way to policy.Greedy.Assign.
func TestServedEqualsSimulated(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.NumFiles = servedEarly + servedLate
	gen.Days = servedDays
	gen.Seed = 37
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	arrive := make([]int, tr.NumFiles())
	for i := servedEarly; i < len(arrive); i++ {
		arrive[i] = servedArrive
	}
	net := rl.NetConfig{HistLen: 7, Filters: 8, Kernel: 4, Stride: 1, Hidden: 16}
	first := rl.NewAgent(net, net.BuildActor(rng.New(4)))
	second := rl.NewAgent(net, net.BuildActor(rng.New(11)))
	m := costmodel.New(pricing.Azure())
	const initial = pricing.Hot

	// The two groups of files and the trace each group's offline plan is
	// made on: its files from their arrival day on.
	early, late := make([]int, servedEarly), make([]int, servedLate)
	for i := range early {
		early[i] = i
	}
	for i := range late {
		late[i] = servedEarly + i
	}
	groups := []struct {
		name  string
		files []int
		from  int
	}{{"tracked from day 0", early, 0}, {fmt.Sprintf("arriving on day %d", servedArrive), late, servedArrive}}

	offline := policy.RL{Agent: first, Workers: 2}
	withoutSwap := func(int) *rl.Agent { return first }
	withSwap := func(day int) *rl.Agent {
		if day <= servedSwap+1 { // the plan after day k's observe decides day k+1
			return first
		}
		return second
	}
	simNoSwap := simulate(tr, arrive, initial, withoutSwap)
	served := replay(t, tr, arrive, newServer(t, first), nil)
	greedy, err := agentserver.NewGreedy(m, net.HistLen, initial, agentserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	servedGreedy := replay(t, tr, arrive, greedy, nil)
	for _, g := range groups {
		gtr, err := tr.Subset(g.files).Window(g.from, servedDays)
		if err != nil {
			t.Fatal(err)
		}
		want, err := offline.Assign(gtr, m, initial)
		if err != nil {
			t.Fatal(err)
		}
		sim, got := slicePlans(simNoSwap, g.files, g.from), slicePlans(served, g.files, g.from)
		assertSamePlans(t, "served vs RL.Assign, files "+g.name, got, want)
		assertSamePlans(t, "simulate without a swap vs RL.Assign, files "+g.name, sim, want)
		assertSameBill(t, "files "+g.name, m, gtr, got, want, initial)
		assertVaried(t, "files "+g.name, want)

		want, err = policy.Greedy{Workers: 2}.Assign(gtr, m, initial)
		if err != nil {
			t.Fatal(err)
		}
		got = slicePlans(servedGreedy, g.files, g.from)
		assertSamePlans(t, "served by Greedy vs Greedy.Assign, files "+g.name, got, want)
		assertSameBill(t, "Greedy, files "+g.name, m, gtr, got, want, initial)
		assertVaried(t, "Greedy, files "+g.name, want)
	}

	simSwap := simulate(tr, arrive, initial, withSwap)
	swapped := replay(t, tr, arrive, newServer(t, first), second)
	for _, g := range groups {
		gtr, err := tr.Subset(g.files).Window(g.from, servedDays)
		if err != nil {
			t.Fatal(err)
		}
		want, got := slicePlans(simSwap, g.files, g.from), slicePlans(swapped, g.files, g.from)
		assertSamePlans(t, "served with a swap vs simulate, files "+g.name, got, want)
		assertSameBill(t, "files "+g.name+" with a swap", m, gtr, got, want, initial)
	}
	moved := 0
	for i := range simSwap {
		for d := range simSwap[i] {
			if simSwap[i][d] != simNoSwap[i][d] {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("the swap moved no decision: the replay does not exercise it")
	}
}

func newServer(t *testing.T, agent *rl.Agent) *agentserver.Server {
	t.Helper()
	s, err := agentserver.New(agent, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// replay drives s, a fresh server, through tr over its HTTP handler. Day k's
// observe carries every file that has arrived by day k (arrive[i] is file
// i's first day), and the plan that follows decides day k+1. When swap is
// set it replaces the serving agent (UpdateAgent) after the plan that
// follows day servedSwap's observe. The result is the served assignment:
// file i holds the initial tier up to its arrival day and then each served
// tier. Every plan's Changed flags must be exactly the files whose tier the
// plan moved — the migration list an operator would execute.
func replay(t *testing.T, tr *trace.Trace, arrive []int, s *agentserver.Server, swap *rl.Agent) costmodel.Assignment {
	t.Helper()
	h := s.Handler()
	ids := make(map[string]int, tr.NumFiles())
	for i := range tr.Files {
		ids[fileID(i)] = i
	}
	served := costmodel.UniformAssignment(pricing.Hot, tr.NumFiles(), tr.Days)
	for k := 0; k < tr.Days-1; k++ {
		var req agentserver.ObserveRequest
		for i := range tr.Files {
			if arrive[i] <= k {
				req.Files = append(req.Files, agentserver.FileObservation{
					ID: fileID(i), SizeGB: tr.Files[i].SizeGB, Reads: tr.Reads[i][k], Writes: tr.Writes[i][k],
				})
			}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		post := httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body))
		post.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, post)
		if rec.Code != http.StatusOK {
			t.Fatalf("day %d: observe answered %d: %s", k, rec.Code, rec.Body.Bytes())
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("day %d: plan answered %d: %s", k, rec.Code, rec.Body.Bytes())
		}
		var plan agentserver.PlanResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &plan); err != nil {
			t.Fatalf("day %d: plan does not decode: %v", k, err)
		}
		if len(plan.Files) != len(req.Files) {
			t.Fatalf("day %d: plan has %d files, %d are tracked", k, len(plan.Files), len(req.Files))
		}
		for _, e := range plan.Files {
			i, ok := ids[e.ID]
			if !ok {
				t.Fatalf("day %d: plan names unknown file %q", k, e.ID)
			}
			tier, err := pricing.ParseTier(e.Tier)
			if err != nil {
				t.Fatalf("day %d: file %q: %v", k, e.ID, err)
			}
			served[i][k+1] = tier
			if moved := tier != served[i][k]; e.Changed != moved {
				t.Fatalf("day %d: file %q: changed=%v, but the plan moved it %v → %v", k, e.ID, e.Changed, served[i][k], tier)
			}
		}
		if swap != nil && k == servedSwap {
			if err := s.UpdateAgent(swap); err != nil {
				t.Fatal(err)
			}
		}
	}
	return served
}

// simulate is mdp's decision rule with nothing but mdp's window and encoder
// and the agent's batched argmax: each day d, every file that arrived on a
// day a < d has the days of its series from a on windowed for its own day
// d-a (mdp.State.FillHistory), encoded with the tier it holds on day d-1
// (mdp.State.FeaturesInto), and decided by agentFor(d) (rl.Agent.DecideBatch).
// A file holds the initial tier up to and including its arrival day.
func simulate(tr *trace.Trace, arrive []int, initial pricing.Tier, agentFor func(day int) *rl.Agent) costmodel.Assignment {
	asg := costmodel.UniformAssignment(initial, tr.NumFiles(), tr.Days)
	h := agentFor(0).Net.HistLen
	st := mdp.State{ReadHistory: make([]float64, h), WriteHistory: make([]float64, h)}
	for d := 1; d < tr.Days; d++ {
		var rows []int
		for i := range tr.Files {
			if arrive[i] < d {
				rows = append(rows, i)
			}
		}
		x := mat.New(len(rows), mdp.FeatureDim(h))
		for r, i := range rows {
			a := arrive[i]
			st.FillHistory(tr.Reads[i][a:], tr.Writes[i][a:], nil, d-a)
			st.SizeGB = tr.Files[i].SizeGB
			st.Tier = asg[i][d-1]
			st.FeaturesInto(x.Row(r))
		}
		out := make([]pricing.Tier, len(rows))
		agentFor(d).DecideBatch(x, out, 1)
		for r, i := range rows {
			asg[i][d] = out[r]
		}
	}
	return asg
}

func fileID(i int) string { return fmt.Sprintf("f%05d", i) }

// slicePlans returns the given files' plans from day from on.
func slicePlans(asg costmodel.Assignment, files []int, from int) costmodel.Assignment {
	out := make(costmodel.Assignment, len(files))
	for j, i := range files {
		out[j] = asg[i][from:]
	}
	return out
}

func assertSamePlans(t *testing.T, what string, got, want costmodel.Assignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files, want %d", what, len(got), len(want))
	}
	for j := range want {
		if len(got[j]) != len(want[j]) {
			t.Fatalf("%s: file %d: %d days, want %d", what, j, len(got[j]), len(want[j]))
		}
		for d := range want[j] {
			if got[j][d] != want[j][d] {
				t.Fatalf("%s: file %d day %d: %v, want %v", what, j, d, got[j][d], want[j][d])
			}
		}
	}
}

// assertSameBill prices both plans on tr with TraceCost and requires every
// file's bill and the total to be the same bits.
func assertSameBill(t *testing.T, what string, m *costmodel.Model, tr *trace.Trace, got, want costmodel.Assignment, initial pricing.Tier) {
	t.Helper()
	init := make([]pricing.Tier, tr.NumFiles())
	for i := range init {
		init[i] = initial
	}
	gb, err := m.TraceCost(tr, got, init, 2)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := m.TraceCost(tr, want, init, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := range wb {
		if gb[j] != wb[j] {
			t.Fatalf("%s: file %d billed %+v served, %+v offline", what, j, gb[j], wb[j])
		}
	}
	g, w := costmodel.SumBreakdowns(gb).Total(), costmodel.SumBreakdowns(wb).Total()
	if math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: served bill %v, offline bill %v", what, g, w)
	}
}

// assertVaried refuses a vacuous reference: the plan must use more than one
// tier and move some file after its first decided day.
func assertVaried(t *testing.T, what string, asg costmodel.Assignment) {
	t.Helper()
	var used [pricing.NumTiers]bool
	moves := 0
	for _, plan := range asg {
		for d, tier := range plan {
			used[tier] = true
			if d > 1 && tier != plan[d-1] {
				moves++
			}
		}
	}
	kinds := 0
	for _, u := range used {
		if u {
			kinds++
		}
	}
	if kinds < 2 || moves == 0 {
		t.Fatalf("%s: the offline plan uses %d tiers and moves %d times after day 1; the comparison would be vacuous", what, kinds, moves)
	}
}
