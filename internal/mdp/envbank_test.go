package mdp

import (
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
)

// bankFixture builds a bank of n members over distinct synthetic series plus
// a parallel set of standalone reference environments with identical data.
func bankFixture(t *testing.T, n, days, histLen int) (*EnvBank, []*Env) {
	t.Helper()
	model := costmodel.New(pricing.Azure())
	bank := NewEnvBank(n)
	refs := make([]*Env, n)
	for i := 0; i < n; i++ {
		reads := make([]float64, days)
		writes := make([]float64, days)
		for d := range reads {
			reads[d] = float64((i+1)*(d+3)) * 7.5
			writes[d] = float64(i * d)
		}
		size := 0.05 * float64(i+1)
		env, err := NewEnv(model, size, reads, writes, pricing.Hot, histLen, DefaultReward())
		if err != nil {
			t.Fatal(err)
		}
		bank.Install(i, env)
		ref, err := NewEnv(model, size, reads, writes, pricing.Hot, histLen, DefaultReward())
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	return bank, refs
}

// TestEnvBankMatchesIndividualStepping pins the bank's lockstep contract:
// StepAll over E members must produce exactly the rewards, costs, terminal
// flags, and feature encodings that stepping each environment alone does.
func TestEnvBankMatchesIndividualStepping(t *testing.T) {
	const n, days, histLen = 5, 9, 4
	bank, refs := bankFixture(t, n, days, histLen)
	dim := FeatureDim(histLen)

	refStates := make([]State, n)
	for i, ref := range refs {
		refStates[i] = ref.Reset()
	}
	actions := make([]pricing.Tier, n)
	got := make([]float64, n*dim)
	want := make([]float64, dim)
	for d := 1; d < days; d++ { // day 0 is served in the initial tier
		bank.FillFeatures(got, dim)
		for i := range refs {
			refStates[i].FeaturesInto(want)
			for k, v := range want {
				if got[i*dim+k] != v {
					t.Fatalf("day %d env %d feature %d = %v, want %v", d, i, k, got[i*dim+k], v)
				}
			}
			actions[i] = pricing.Tier((d + i) % NumActions)
		}
		bank.StepAll(actions)
		for i, ref := range refs {
			next, reward, cost, done, err := ref.Step(actions[i])
			if err != nil {
				t.Fatal(err)
			}
			refStates[i] = next
			if bank.Rewards[i] != reward || bank.Costs[i] != cost || bank.Done[i] != done {
				t.Fatalf("day %d env %d: bank (r=%v c=%v done=%v), ref (r=%v c=%v done=%v)",
					d, i, bank.Rewards[i], bank.Costs[i], bank.Done[i], reward, cost, done)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !bank.Done[i] {
			t.Fatalf("env %d not done after %d days", i, days)
		}
	}
}

// TestEnvBankResetEnvStartsFreshEpisode checks the turnover path the
// vectorized engine uses mid-rollout: Reinit the pooled member in place,
// ResetEnv, and keep stepping.
func TestEnvBankResetEnvStartsFreshEpisode(t *testing.T) {
	const days, histLen = 3, 2
	bank, _ := bankFixture(t, 2, days, histLen)
	actions := []pricing.Tier{pricing.Hot, pricing.Cool}
	for d := 1; d < days; d++ {
		bank.StepAll(actions)
	}
	if !bank.Done[0] || !bank.Done[1] {
		t.Fatal("episodes should be finished")
	}
	model := costmodel.New(pricing.Azure())
	reads := []float64{9, 9, 9, 9}
	writes := []float64{1, 1, 1, 1}
	if err := bank.Env(0).Reinit(model, 0.2, reads, writes, pricing.Cool, histLen, DefaultReward()); err != nil {
		t.Fatal(err)
	}
	bank.ResetEnv(0)
	if bank.Done[0] {
		t.Fatal("ResetEnv left the terminal flag set")
	}
	if got := bank.State(0).Tier; got != pricing.Cool {
		t.Fatalf("reinitialized member starts in tier %v, want Cool", got)
	}
	if bank.Env(0).Days() != len(reads) {
		t.Fatalf("reinitialized member has %d days, want %d", bank.Env(0).Days(), len(reads))
	}
}

// TestEnvBankSteadyStateAllocFree gates the lockstep kernels: with state
// reuse on (Install enables it), a FillFeatures + StepAll + turnover cycle
// allocates nothing once the members' observation buffers are warm.
func TestEnvBankSteadyStateAllocFree(t *testing.T) {
	const n, days, histLen = 4, 64, 7
	bank, _ := bankFixture(t, n, days, histLen)
	dim := FeatureDim(histLen)
	feats := make([]float64, n*dim)
	actions := make([]pricing.Tier, n)
	day := 0
	cycle := func() {
		bank.FillFeatures(feats, dim)
		for i := range actions {
			actions[i] = pricing.Tier((day + i) % NumActions)
		}
		bank.StepAll(actions)
		for i := range actions {
			if bank.Done[i] {
				bank.ResetEnv(i)
			}
		}
		day++
	}
	cycle() // warm the reuse buffers
	cycle()
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state bank cycle allocates %.0f/op, want 0", allocs)
	}
}

// TestEnvBankStepAfterDonePanics pins the reset-before-step contract.
func TestEnvBankStepAfterDonePanics(t *testing.T) {
	bank, _ := bankFixture(t, 1, 3, 2) // decides days 1 and 2
	actions := []pricing.Tier{pricing.Hot}
	bank.StepAll(actions)
	bank.StepAll(actions)
	if !bank.Done[0] {
		t.Fatal("episode should be finished")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StepAll on a finished member did not panic")
		}
	}()
	bank.StepAll(actions)
}
