package policy

import (
	"math"
	"testing"
	"testing/quick"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

func model() *costmodel.Model { return costmodel.New(pricing.Azure()) }

func genTrace(t testing.TB, files, days int) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.NumFiles = files
	cfg.Days = days
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStaticAssign(t *testing.T) {
	tr := genTrace(t, 20, 10)
	m := model()
	for _, tier := range pricing.AllTiers() {
		asg, err := Static{Tier: tier}.Assign(tr, m, pricing.Hot)
		if err != nil {
			t.Fatal(err)
		}
		for i := range asg {
			for d := range asg[i] {
				if asg[i][d] != tier {
					t.Fatalf("static %v assigned %v", tier, asg[i][d])
				}
			}
		}
	}
	if _, err := (Static{Tier: pricing.Tier(9)}).Assign(tr, m, pricing.Hot); err == nil {
		t.Fatal("invalid static tier accepted")
	}
}

func TestBruteForceMatchesDP(t *testing.T) {
	// The central equivalence: the O(D·Γ²) dynamic program computes exactly
	// the optimum the paper's exhaustive search defines.
	m := model()
	f := func(seed uint64) bool {
		r := rng.New(seed)
		days := 3 + r.Intn(4) // 3..6 days: 3^6=729 plans
		reads := make([]float64, days)
		writes := make([]float64, days)
		for d := range reads {
			reads[d] = r.Float64() * 2000
			writes[d] = r.Float64() * 20
		}
		size := 0.01 + r.Float64()
		initial := pricing.Tier(r.Intn(3))
		dpPlan, dpCost := OptimalPlan(m, size, reads, writes, initial)
		_, bfCost, err := BruteForcePlan(m, size, reads, writes, initial)
		if err != nil {
			return false
		}
		if math.Abs(dpCost-bfCost) > 1e-9 {
			t.Logf("seed %d: dp %v brute %v", seed, dpCost, bfCost)
			return false
		}
		// The DP's own plan must price to its claimed cost.
		bd, err := m.PlanCost(initial, dpPlan, size, reads, writes)
		if err != nil || math.Abs(bd.Total()-dpCost) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalLowerBoundsEveryPolicy(t *testing.T) {
	// Optimal must never cost more than Hot, Cold, Archive, or Greedy on
	// any trace — the paper's "lower bound for all online methods".
	tr := genTrace(t, 60, 21)
	m := model()
	optCost, err := bill(Optimal{}, tr, m, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Assigner{
		Static{Tier: pricing.Hot},
		Static{Tier: pricing.Cool},
		Static{Tier: pricing.Archive},
		Greedy{},
	} {
		c, err := bill(a, tr, m, pricing.Hot)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if optCost.Total() > c.Total()+1e-9 {
			t.Fatalf("optimal %v beats %s %v — bound violated", optCost.Total(), a.Name(), c.Total())
		}
	}
}

func TestGreedyBeatsWorstStatic(t *testing.T) {
	tr := genTrace(t, 80, 21)
	m := model()
	greedy, err := bill(Greedy{}, tr, m, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	hot, _ := bill(Static{Tier: pricing.Hot}, tr, m, pricing.Hot)
	cold, _ := bill(Static{Tier: pricing.Cool}, tr, m, pricing.Hot)
	worst := math.Max(hot.Total(), cold.Total())
	if greedy.Total() >= worst {
		t.Fatalf("greedy %v not better than worst static %v", greedy.Total(), worst)
	}
}

func TestGreedyChasesVolatileFiles(t *testing.T) {
	// Online greedy's failure mode (§3.2): on an alternating busy/idle file
	// it reacts to yesterday's frequency, so it is in the wrong tier every
	// day and pays transition churn on top. Optimal holds steady and must
	// beat it clearly.
	m := model()
	days := 14
	reads := make([]float64, days)
	writes := make([]float64, days)
	for d := range reads {
		if d%2 == 0 {
			reads[d] = 4000 // hot clearly wins the day
		} else {
			reads[d] = 0 // archive wins the day
		}
	}
	g := make(costmodel.Plan, days)
	c := m.FileCoeffs(0.1)
	greedyPlan(g, &c, reads, writes, pricing.Hot, false)
	changes := g.Changes(pricing.Hot)
	if changes < 4 {
		t.Fatalf("expected flip-flopping greedy, got %d changes (%v)", changes, g)
	}
	_, optCost := OptimalPlan(m, 0.1, reads, writes, pricing.Hot)
	bd, err := m.PlanCost(pricing.Hot, g, 0.1, reads, writes)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= optCost*1.2 {
		t.Fatalf("greedy %v should cost clearly more than optimal %v here", bd.Total(), optCost)
	}
}

func TestGreedyOracleBeatsOnlineGreedy(t *testing.T) {
	// Same-day knowledge can only help a per-day policy.
	tr := genTrace(t, 80, 21)
	m := model()
	online, err := bill(Greedy{}, tr, m, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := bill(Greedy{Oracle: true}, tr, m, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Total() > online.Total()*1.02 {
		t.Fatalf("oracle greedy %v worse than online %v", oracle.Total(), online.Total())
	}
}

func TestGreedyMovesIdleFilesOutOfHot(t *testing.T) {
	// With the default pricing the hot->archive storage differential
	// exceeds the transition fee within a day, so greedy must park a
	// permanently idle file in archive.
	m := model()
	days := 10
	reads := make([]float64, days)
	writes := make([]float64, days)
	g := make(costmodel.Plan, days)
	c := m.FileCoeffs(0.1)
	greedyPlan(g, &c, reads, writes, pricing.Hot, false)
	if g[days-1] != pricing.Archive {
		t.Fatalf("idle file ends in %v, want archive (%v)", g[days-1], g)
	}
}

func TestOptimalPlanEmptySeries(t *testing.T) {
	plan, cost := OptimalPlan(model(), 0.1, nil, nil, pricing.Hot)
	if len(plan) != 0 || cost != 0 {
		t.Fatal("empty series should give empty plan")
	}
}

func TestBruteForceRefusesLongHorizons(t *testing.T) {
	tr := genTrace(t, 2, MaxDays+1)
	if _, err := (BruteForce{}).Assign(tr, model(), pricing.Hot); err == nil {
		t.Fatal("long-horizon brute force accepted")
	}
	long := make([]float64, MaxDays+1)
	if _, _, err := BruteForcePlan(model(), 0.1, long, long, pricing.Hot); err == nil {
		t.Fatal("long-horizon brute force plan accepted")
	}
}

func TestBruteForceAssignerMatchesOptimalAssigner(t *testing.T) {
	tr := genTrace(t, 10, 5)
	m := model()
	bf, err := bill(BruteForce{}, tr, m, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := bill(Optimal{}, tr, m, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bf.Total()-opt.Total()) > 1e-9 {
		t.Fatalf("brute %v vs dp %v", bf.Total(), opt.Total())
	}
}

func TestRLAssignerShapes(t *testing.T) {
	tr := genTrace(t, 10, 12)
	m := model()
	netCfg := rl.NetConfig{HistLen: 7, Filters: 4, Kernel: 3, Stride: 1, Hidden: 8}
	agent := rl.NewAgent(netCfg, netCfg.BuildActor(rng.New(1)))
	asg, err := RL{Agent: agent}.Assign(tr, m, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg) != tr.NumFiles() {
		t.Fatal("wrong file count")
	}
	for i := range asg {
		if len(asg[i]) != tr.Days {
			t.Fatal("wrong plan length")
		}
		for _, tier := range asg[i] {
			if !tier.Valid() {
				t.Fatal("invalid tier in RL plan")
			}
		}
	}
	if _, err := (RL{}).Assign(tr, m, pricing.Hot); err == nil {
		t.Fatal("nil agent accepted")
	}
}

func TestRLAssignerDeterministicAcrossWorkers(t *testing.T) {
	tr := genTrace(t, 12, 10)
	m := model()
	netCfg := rl.NetConfig{HistLen: 7, Filters: 4, Kernel: 3, Stride: 1, Hidden: 8}
	agent := rl.NewAgent(netCfg, netCfg.BuildActor(rng.New(2)))
	a1, err := RL{Agent: agent, Workers: 1}.Assign(tr, m, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	a8, err := RL{Agent: agent, Workers: 8}.Assign(tr, m, pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if MatchRate(a1, a8) != 1 {
		t.Fatal("worker count changed RL decisions")
	}
}

func TestMatchRate(t *testing.T) {
	a := costmodel.Assignment{
		{pricing.Hot, pricing.Hot, pricing.Cool},
		{pricing.Archive, pricing.Archive, pricing.Archive},
	}
	b := costmodel.Assignment{
		{pricing.Hot, pricing.Cool, pricing.Cool},
		{pricing.Archive, pricing.Archive, pricing.Hot},
	}
	if got := MatchRate(a, b); math.Abs(got-4.0/6) > 1e-12 {
		t.Fatalf("MatchRate = %v, want 4/6", got)
	}
	if MatchRate(a, a) != 1 {
		t.Fatal("self match != 1")
	}
	if MatchRate(costmodel.Assignment{}, costmodel.Assignment{}) != 0 {
		t.Fatal("empty match should be 0")
	}
}

func TestCostOrderingOnDefaultWorkload(t *testing.T) {
	// The qualitative Fig. 7 ordering for the non-RL methods:
	// Optimal <= Greedy <= min(Hot, Cold) on the default workload.
	tr := genTrace(t, 150, 35)
	m := model()
	cost := func(a Assigner) float64 {
		c, err := bill(a, tr, m, pricing.Hot)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		return c.Total()
	}
	opt := cost(Optimal{})
	greedy := cost(Greedy{})
	hot := cost(Static{Tier: pricing.Hot})
	cold := cost(Static{Tier: pricing.Cool})
	if !(opt <= greedy+1e-9) {
		t.Fatalf("optimal %v > greedy %v", opt, greedy)
	}
	if !(greedy <= math.Min(hot, cold)+1e-9) {
		t.Fatalf("greedy %v > best static %v", greedy, math.Min(hot, cold))
	}
	t.Logf("optimal=%.2f greedy=%.2f hot=%.2f cold=%.2f", opt, greedy, hot, cold)
}

func BenchmarkOptimalPlan35Days(b *testing.B) {
	m := model()
	r := rng.New(1)
	reads := make([]float64, 35)
	writes := make([]float64, 35)
	for d := range reads {
		reads[d] = r.Float64() * 1000
		writes[d] = r.Float64() * 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimalPlan(m, 0.1, reads, writes, pricing.Hot)
	}
}

func BenchmarkGreedyAssign1k(b *testing.B) {
	tr := genTrace(b, 1000, 35)
	m := model()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Greedy{}).Assign(tr, m, pricing.Hot); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalAssign1k(b *testing.B) {
	tr := genTrace(b, 1000, 35)
	m := model()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Optimal{}).Assign(tr, m, pricing.Hot); err != nil {
			b.Fatal(err)
		}
	}
}
