package policy

import (
	"math"
	"strings"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// bill scores one method and returns its summed bill.
func bill(a Assigner, tr *trace.Trace, m *costmodel.Model, initial pricing.Tier) (costmodel.Breakdown, error) {
	board, err := Score(m, tr, initial, 0, a)
	if err != nil {
		return costmodel.Breakdown{}, err
	}
	return board[0].Total, nil
}

func sameBreakdown(a, b costmodel.Breakdown) bool {
	return math.Float64bits(a.Storage) == math.Float64bits(b.Storage) &&
		math.Float64bits(a.Read) == math.Float64bits(b.Read) &&
		math.Float64bits(a.Write) == math.Float64bits(b.Write) &&
		math.Float64bits(a.Transition) == math.Float64bits(b.Transition)
}

// TestScoreMatchesHarnessPricing holds Score bit for bit to the pricing the
// benchmark harness does by hand: Assign, then TraceCost with every file
// starting hot on one worker, then SumBreakdowns.
func TestScoreMatchesHarnessPricing(t *testing.T) {
	tr := genTrace(t, 40, 21)
	m := model()
	net := rl.NetConfig{HistLen: 7, Filters: 4, Kernel: 3, Stride: 1, Hidden: 8}
	agent := rl.NewAgent(net, net.BuildActor(rng.New(3)))
	for _, workers := range []int{1, 0} {
		methods := append(Baselines(workers), RL{Agent: agent, HistLen: net.HistLen, Workers: workers})
		board, err := Score(m, tr, pricing.Hot, workers, methods...)
		if err != nil {
			t.Fatal(err)
		}
		if len(board) != len(methods) {
			t.Fatalf("workers %d: %d rows for %d methods", workers, len(board), len(methods))
		}
		for k, a := range methods {
			row := board[k]
			asg, err := a.Assign(tr, m, pricing.Hot)
			if err != nil {
				t.Fatal(err)
			}
			bds, err := m.TraceCost(tr, asg, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			if row.Name != a.Name() {
				t.Fatalf("row %d named %q, want %q", k, row.Name, a.Name())
			}
			if MatchRate(row.Plan, asg) != 1 || len(row.Plan) != len(asg) {
				t.Fatalf("workers %d %s: plan differs from Assign", workers, a.Name())
			}
			if len(row.Files) != len(bds) {
				t.Fatalf("workers %d %s: %d file bills, want %d", workers, a.Name(), len(row.Files), len(bds))
			}
			for i := range bds {
				if !sameBreakdown(row.Files[i], bds[i]) {
					t.Fatalf("workers %d %s file %d: %v, want %v", workers, a.Name(), i, row.Files[i], bds[i])
				}
			}
			if want := costmodel.SumBreakdowns(bds); !sameBreakdown(row.Total, want) {
				t.Fatalf("workers %d %s: total %v, want %v", workers, a.Name(), row.Total, want)
			}
		}
		opt, ok := board.Find("optimal")
		if !ok || opt.Ratio != 1 {
			t.Fatalf("workers %d: optimal row %v (found %v), want ratio 1", workers, opt.Ratio, ok)
		}
		for _, row := range board {
			if row.Ratio < 1 {
				t.Fatalf("workers %d: %s ratio %v below the optimum", workers, row.Name, row.Ratio)
			}
		}
	}
}

// TestScoreNamesThePaperMethods: the baselines carry the paper's labels in
// its plot order, and a board without an optimal row has no ratios.
func TestScoreNamesThePaperMethods(t *testing.T) {
	var names []string
	for _, a := range Baselines(0) {
		names = append(names, a.Name())
	}
	if got := strings.Join(names, ","); got != "hot,cold,greedy,optimal" {
		t.Fatalf("baselines %s", got)
	}
	board, err := Score(model(), genTrace(t, 5, 7), pricing.Hot, 0, Static{Tier: pricing.Hot})
	if err != nil {
		t.Fatal(err)
	}
	if board[0].Ratio != 0 {
		t.Fatalf("ratio %v without an optimal row", board[0].Ratio)
	}
}

// badTier plans every file-day in an undefined tier.
type badTier struct{}

func (badTier) Name() string { return "bad-tier" }

func (badTier) Assign(tr *trace.Trace, _ *costmodel.Model, _ pricing.Tier) (costmodel.Assignment, error) {
	return costmodel.UniformAssignment(pricing.Tier(5), tr.NumFiles(), tr.Days), nil
}

// TestScoreRefusesInvalidTiers: an initial tier outside the price schedule
// is refused before any method runs (Greedy used to index out of range,
// Optimal and Static to return a bill), and so is a plan holding one, with
// an error naming the method (TraceCost used to index out of range).
func TestScoreRefusesInvalidTiers(t *testing.T) {
	tr := genTrace(t, 6, 9)
	cases := []struct {
		name    string
		a       Assigner
		initial pricing.Tier
		want    string
	}{
		{"greedy initial", Greedy{}, pricing.Tier(9), "invalid initial tier 9"},
		{"optimal initial", Optimal{}, pricing.Tier(9), "invalid initial tier 9"},
		{"static initial", Static{Tier: pricing.Hot}, pricing.Tier(-1), "invalid initial tier -1"},
		{"plan tier", badTier{}, pricing.Hot, "policy bad-tier: file 0 day 0: invalid tier 5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			board, err := Score(model(), tr, c.initial, 0, c.a)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err %v (board %v), want one containing %q", err, board, c.want)
			}
		})
	}
}
