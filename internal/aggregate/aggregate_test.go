package aggregate

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"minicost/internal/costmodel"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

func model() *costmodel.Model { return costmodel.New(pricing.Azure()) }

func TestOmegaSignMatchesEq15(t *testing.T) {
	// Ω > 0 exactly when rdc exceeds the Eq. 15 threshold.
	m := model()
	up := m.Policy.StoragePerGBDay(pricing.Hot)
	urf := m.Policy.ReadOpPrice(pricing.Hot)
	f := func(nRaw uint8, rdcRaw, sizeRaw uint16) bool {
		n := int(nRaw%4) + 2
		rdc := float64(rdcRaw) / 10
		size := float64(sizeRaw)/100 + 0.01
		threshold := RdcThreshold(n, size, up, urf)
		om := Omega(n, rdc, size, up, urf)
		if rdc > threshold*1.0000001 {
			return om > 0
		}
		if rdc < threshold*0.9999999 {
			return om <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOmegaDegenerate(t *testing.T) {
	if Omega(1, 10, 1, 0.01, 0.001) >= 0 {
		t.Fatal("single-member group should never aggregate")
	}
	if Omega(3, 10, 0, 0.01, 0.001) >= 0 {
		t.Fatal("zero size should be rejected")
	}
}

func TestAggregationSavingMatchesCostModel(t *testing.T) {
	// First principles: price a 2-file group with and without aggregation
	// using the cost model directly; aggregation must win exactly when
	// Ω > 0. Files and replica all stay in the same tier so Eq. 13/14 apply
	// verbatim.
	m := model()
	tier := pricing.Hot
	days := 14
	for _, rdc := range []float64{0.01, 0.2, 1, 10, 120, 500} {
		size := 0.1
		reads := make([]float64, days)
		for d := range reads {
			reads[d] = rdc + 5 // each member gets rdc concurrent + 5 own reads
		}
		zero := make([]float64, days)
		plain := 0.0
		for i := 0; i < 2; i++ {
			bd, err := m.PlanCost(tier, costmodel.Uniform(tier, days), size, reads, zero)
			if err != nil {
				t.Fatal(err)
			}
			plain += bd.Total()
		}
		// Aggregated: members keep 5 own reads, replica (0.2 GB) serves rdc.
		memberReads := make([]float64, days)
		replicaReads := make([]float64, days)
		for d := range memberReads {
			memberReads[d] = 5
			replicaReads[d] = rdc
		}
		agg := 0.0
		for i := 0; i < 2; i++ {
			bd, err := m.PlanCost(tier, costmodel.Uniform(tier, days), size, memberReads, zero)
			if err != nil {
				t.Fatal(err)
			}
			agg += bd.Total()
		}
		bd, err := m.PlanCost(tier, costmodel.Uniform(tier, days), 2*size, replicaReads, zero)
		if err != nil {
			t.Fatal(err)
		}
		agg += bd.Total()

		om := Omega(2, rdc, 2*size, m.Policy.StoragePerGBDay(tier), m.Policy.ReadOpPrice(tier))
		if om > 0 && agg >= plain {
			t.Fatalf("rdc=%v: Ω=%v > 0 but aggregation not cheaper (%v vs %v)", rdc, om, agg, plain)
		}
		if om < 0 && agg <= plain {
			t.Fatalf("rdc=%v: Ω=%v < 0 but aggregation cheaper (%v vs %v)", rdc, om, agg, plain)
		}
	}
}

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

func TestScoreGroups(t *testing.T) {
	tr := genTrace(t, 100, 21)
	m := model()
	scores, err := ScoreGroups(tr, m, DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(tr.Groups) {
		t.Fatalf("scored %d of %d groups", len(scores), len(tr.Groups))
	}
	for _, s := range scores {
		if s.SumSizeGB <= 0 || s.MeanRdc < 0 {
			t.Fatalf("bad score %+v", s)
		}
	}
	if _, err := ScoreGroups(tr, m, DefaultConfig(), 0); err == nil {
		t.Fatal("day 0 accepted")
	}
	if _, err := ScoreGroups(tr, m, DefaultConfig(), tr.Days+1); err == nil {
		t.Fatal("day beyond horizon accepted")
	}
	bad := DefaultConfig()
	bad.WindowDays = 0
	if _, err := ScoreGroups(tr, m, bad, 7); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSelectTop(t *testing.T) {
	scores := []GroupScore{
		{Group: 0, Omega: 5},
		{Group: 1, Omega: -1},
		{Group: 2, Omega: 10},
		{Group: 3, Omega: 0.5},
		{Group: 4, Omega: 0},
	}
	top := SelectTop(scores, 2)
	if len(top) != 2 || top[0].Group != 2 || top[1].Group != 0 {
		t.Fatalf("top = %+v", top)
	}
	all := SelectTop(scores, 0)
	if len(all) != 3 {
		t.Fatalf("psi=0 should keep all positives, got %d", len(all))
	}
}

func TestAggregatorLifecycle(t *testing.T) {
	// Hand-built trace: one group whose concurrency starts high and then
	// goes to zero. The aggregator must create a replica early and evict it
	// after EvictAfter negative evaluations.
	days := 28
	mkReads := func(level float64) []float64 {
		out := make([]float64, days)
		for d := range out {
			if d < 14 {
				out[d] = level
			}
		}
		return out
	}
	tr := &trace.Trace{Days: days}
	for i := 0; i < 2; i++ {
		tr.Files = append(tr.Files, trace.FileMeta{ID: i, SizeGB: 0.1})
		tr.Reads = append(tr.Reads, mkReads(500))
		tr.Writes = append(tr.Writes, make([]float64, days))
	}
	tr.Groups = []trace.Group{{Members: []int{0, 1}, Concurrent: mkReads(400)}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	m := model()
	cfg := DefaultConfig()
	ag, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	create, del, err := ag.Update(tr, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(create) != 1 || len(del) != 0 || !ag.IsActive(0) {
		t.Fatalf("week 1: create=%v del=%v", create, del)
	}
	// Week 2 still busy: no change.
	create, del, _ = ag.Update(tr, 14)
	if len(create) != 0 || len(del) != 0 {
		t.Fatalf("week 2: create=%v del=%v", create, del)
	}
	// Weeks 3-4: concurrency zero -> Ω < 0 twice -> evict on the second.
	create, del, _ = ag.Update(tr, 21)
	if len(del) != 0 || !ag.IsActive(0) {
		t.Fatalf("week 3 premature eviction: del=%v", del)
	}
	create, del, _ = ag.Update(tr, 28)
	if len(del) != 1 || ag.IsActive(0) {
		t.Fatalf("week 4: del=%v active=%v", del, ag.Active())
	}
	_ = create
}

// TestReroute holds Reroute to §5.2's read move: on a lifetime's live days
// each member's reads drop by the group's r_dc, clamped at 0, so the
// requests left on the members plus those the replica serves fall short of
// the original by (n−1)·Σ r_dc. The result must not depend on the order
// the lifetimes are listed in: shared is a trace whose two groups share
// file 0, with values chosen so that (1−0.1)−0.2 and (1−0.2)−0.1 differ in
// the last bit.
func TestReroute(t *testing.T) {
	gen := genTrace(t, 60, 14)
	if len(gen.Groups) < 2 {
		t.Fatal("need two groups")
	}
	shared := &trace.Trace{Days: 2}
	for i, r := range []float64{1, 0.5, 0.5} {
		shared.Files = append(shared.Files, trace.FileMeta{ID: i, SizeGB: 0.1})
		shared.Reads = append(shared.Reads, []float64{r, r})
		shared.Writes = append(shared.Writes, make([]float64, 2))
	}
	shared.Groups = []trace.Group{
		{Members: []int{0, 1}, Concurrent: []float64{0.1, 0.1}},
		{Members: []int{0, 2}, Concurrent: []float64{0.2, 0.2}},
	}
	if err := shared.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		tr    *trace.Trace
		lives []Lifetime
	}{
		{"whole horizon", gen, []Lifetime{{0, 0, gen.Days}}},
		{"inside the horizon", gen, []Lifetime{{0, 3, gen.Days - 4}}},
		{"two groups", gen, []Lifetime{{0, 0, 7}, {1, 7, gen.Days}}},
		{"shared member", shared, []Lifetime{{0, 0, 2}, {1, 0, 2}}},
	} {
		tr := tc.tr
		before := make([][]float64, len(tr.Reads))
		for i := range tr.Reads {
			before[i] = append([]float64(nil), tr.Reads[i]...)
		}
		reads, err := Reroute(tr, tc.lives)
		if err != nil {
			t.Fatal(err)
		}
		moved := make(map[[2]int]float64) // (member, day) -> r_dc moved off it
		savedWant, replicaReads := 0.0, 0.0
		for _, l := range tc.lives {
			g := tr.Groups[l.Group]
			for d := l.From; d < l.To; d++ {
				for _, mb := range g.Members {
					moved[[2]int{mb, d}] += g.Concurrent[d]
				}
				savedWant += float64(len(g.Members)-1) * g.Concurrent[d]
				replicaReads += g.Concurrent[d]
			}
		}
		for i := range reads {
			for d, r := range reads[i] {
				want := max(tr.Reads[i][d]-moved[[2]int{i, d}], 0)
				if math.Abs(r-want) > 1e-12 {
					t.Fatalf("%s: file %d day %d reads %v, want %v", tc.name, i, d, r, want)
				}
			}
		}
		rerouted := &trace.Trace{Days: tr.Days, Files: tr.Files, Reads: reads, Writes: tr.Writes}
		saved := tr.TotalRequests() - rerouted.TotalRequests() - replicaReads
		if math.Abs(saved-savedWant) > 1e-6 {
			t.Fatalf("%s: request reduction %v, want %v", tc.name, saved, savedWant)
		}
		reversed := append([]Lifetime(nil), tc.lives...)
		slices.Reverse(reversed)
		again, err := Reroute(tr, reversed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reads {
			for d := range reads[i] {
				if math.Float64bits(reads[i][d]) != math.Float64bits(again[i][d]) {
					t.Fatalf("%s: file %d day %d: %.17g as listed, %.17g reversed", tc.name, i, d, reads[i][d], again[i][d])
				}
			}
		}
		// The result shares no storage with the input, and the input is
		// left as it was.
		reads[tr.Groups[0].Members[0]][0] = -1
		for i := range tr.Reads {
			for d := range tr.Reads[i] {
				if math.Float64bits(tr.Reads[i][d]) != math.Float64bits(before[i][d]) {
					t.Fatalf("%s: input reads of file %d day %d changed", tc.name, i, d)
				}
			}
		}
	}
	for _, g := range []int{-1, len(gen.Groups)} {
		if _, err := Reroute(gen, []Lifetime{{g, 0, gen.Days}}); err == nil {
			t.Fatalf("group %d accepted", g)
		}
	}
	if _, err := Reroute(&trace.Trace{Days: 3}, nil); err == nil {
		t.Fatal("trace without groups accepted")
	}
}

// TestAggregationReducesCostWhenOmegaPositive: on a trace with strong
// concurrency, every baseline's plan billed with Algorithm 2's replica
// lifetimes costs no more than its plain Score row; on the same trace
// without groups the bill is the Score row bit for bit.
func TestAggregationReducesCostWhenOmegaPositive(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.NumFiles = 120
	cfg.Days = 21
	cfg.HeadFraction = 0.2 // plenty of head files -> some groups clear Eq. 15
	cfg.GroupFraction = 0.5
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := model()
	board, err := policy.Score(m, tr, pricing.Hot, 0, policy.Baselines(0)...)
	if err != nil {
		t.Fatal(err)
	}
	groupless := *tr
	groupless.Groups = nil
	for _, row := range board {
		bill, active, err := Bill(m, tr, row.Plan, nil, DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if active == 0 {
			t.Fatalf("%s: no group aggregated; the test needs a trace the enhancement acts on", row.Name)
		}
		if bill.Total() > row.Total.Total() {
			t.Fatalf("%s: aggregation raised the bill: %v -> %v", row.Name, row.Total.Total(), bill.Total())
		}
		t.Logf("%s: %v -> %v with %d replicas live at the end", row.Name, row.Total.Total(), bill.Total(), active)
		plain, _, err := Bill(m, &groupless, row.Plan, nil, DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if plain != row.Total {
			t.Fatalf("%s: without groups Bill %v, Score row %v", row.Name, plain, row.Total)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{Psi: -1, WindowDays: 7, EvictAfter: 2, ReplicaTier: pricing.Hot},
		{Psi: 1, WindowDays: 0, EvictAfter: 2, ReplicaTier: pricing.Hot},
		{Psi: 1, WindowDays: 7, EvictAfter: 0, ReplicaTier: pricing.Hot},
		{Psi: 1, WindowDays: 7, EvictAfter: 2, ReplicaTier: pricing.Tier(9)},
	} {
		if bad.Validate() == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
	if _, err := New(model(), Config{}); err == nil {
		t.Fatal("zero config accepted by New")
	}
}

func BenchmarkScoreGroups(b *testing.B) {
	tr := genTrace(b, 2000, 21)
	m := model()
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScoreGroups(tr, m, cfg, 7); err != nil {
			b.Fatal(err)
		}
	}
}
