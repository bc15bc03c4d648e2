// Package mdp formulates the cost-minimization problem as the paper's
// streamlined Markov Decision Process (§4.2): states carry each file's read
// and write frequencies, size and tier (Eq. 2); actions assign a tier
// (Eq. 3); transitions are deterministic (P = 1); and the reward is
// R(s,a) = α / C(s,a) + Δ (Eq. 4).
//
// The decision rule, which every decider in the repository follows: the
// tier for day d is decided from the file's last HistLen observed days
// before d, left-padded with its first observed day; day 0 is served in the
// initial tier. A day on which the file was not observed does not count.
// State.FillHistory is the rule's one implementation — the window and its
// cold-start clamp — shared by Env, by inference that plans straight from a
// trace (rl.Agent.DecideTrace) and by the serving store, which hands it a
// file's latest ring cells.
//
// Env steps one file through its trace day by day from day 1, billing each
// day through the file's costmodel.FileCoeffs; EnvBank steps many of them in
// lockstep.
package mdp

import (
	"fmt"
	"math"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
)

// State is the per-file observation (Eq. 2): recent read/write frequency
// history, file size, and the current storage tier.
type State struct {
	ReadHistory  []float64 // most recent last; length = Env.HistLen
	WriteHistory []float64
	// ReadLogs optionally holds log1p of ReadHistory, day for day, filled by
	// FillHistory from a precomputed series; nil makes FeaturesInto take
	// the logarithms itself.
	ReadLogs []float64
	SizeGB   float64
	Tier     pricing.Tier
}

// NumActions is the per-file action count |Γ| (Eq. 3): keep the tier or
// move to either of the other two.
const NumActions = pricing.NumTiers

// FeatureDim returns the encoded feature length for a history window: two
// interleaved channels per history day plus the static features.
func FeatureDim(histLen int) int { return 2*histLen + 3 + pricing.NumTiers }

// HistoryFeatureDim returns the length of the history block at the front of
// the feature vector (the part the conv front-end should process).
func HistoryFeatureDim(histLen int) int { return 2 * histLen }

// Features encodes the state for the neural network. The history block
// interleaves two channels per day d:
//
//	[ reads_d / windowMean ,  log1p(reads_d)/10 ] × histLen
//
// followed by [log-scale of the window mean, write/read ratio, file size,
// tier one-hot]. The shape channel makes demand *patterns* comparable across
// popularity scales; the log channel carries the absolute traffic level the
// tier economics depend on — without it, a mega-hot page and a dormant one
// present identical histories (all ≈ 1 after mean-normalisation) and the
// policy cannot separate them.
func (s *State) Features() []float64 {
	out := make([]float64, FeatureDim(len(s.ReadHistory)))
	s.FeaturesInto(out)
	return out
}

// FillHistory fills s's history windows for deciding day day of the
// read/write series under the decision rule: ReadHistory[i] and
// WriteHistory[i] hold day day-len(ReadHistory)+i, and days before the
// series start repeat day 0, so a cold start repeats the first observation
// instead of looking like a traffic cliff. Day 0 has no observed day before
// it: its windows are zeros. Both windows must have the same length; the
// series must cover day-1. logs is either nil or log1p of reads, day for
// day; when it is given, ReadLogs (which must then have the windows' length)
// takes the same days from it, so a caller that encodes every day of a
// series takes each logarithm once instead of once per window it slides
// through.
//
//minicost:hotpath
func (s *State) FillHistory(reads, writes, logs []float64, day int) {
	if day <= 0 {
		clear(s.ReadHistory)
		clear(s.WriteHistory)
		if logs != nil {
			clear(s.ReadLogs)
		}
		return
	}
	h := len(s.ReadHistory)
	for i := range s.ReadHistory {
		d := max(day-h+i, 0)
		s.ReadHistory[i] = reads[d]
		s.WriteHistory[i] = writes[d]
		if logs != nil {
			s.ReadLogs[i] = logs[d]
		}
	}
}

// FeaturesInto encodes the state into dst, which must have length
// FeatureDim(len(s.ReadHistory)). It performs no allocation — the batched
// inference path uses it to pack feature rows directly into a batch matrix.
// The log channel reads ReadLogs when it is set and takes log1p of the
// history otherwise; the two give the same bits.
//
//minicost:hotpath
func (s *State) FeaturesInto(dst []float64) {
	h := len(s.ReadHistory)
	if len(dst) != FeatureDim(h) {
		panic(fmt.Sprintf("mdp: FeaturesInto dst len %d, want %d", len(dst), FeatureDim(h)))
	}
	logs := s.ReadLogs
	if logs != nil && len(logs) != h {
		panic(fmt.Sprintf("mdp: FeaturesInto ReadLogs len %d, want %d", len(logs), h))
	}
	out := dst
	for i := range out {
		out[i] = 0
	}
	mean := 0.0
	for _, v := range s.ReadHistory {
		mean += v
	}
	mean /= float64(h)
	denom := mean
	if denom <= 0 {
		denom = 1
	}
	for i, v := range s.ReadHistory {
		out[2*i] = v / denom
		if logs != nil {
			out[2*i+1] = logs[i] / 10
		} else {
			out[2*i+1] = math.Log1p(v) / 10
		}
	}
	out[2*h] = math.Log1p(mean) / 10
	wmean := 0.0
	for _, v := range s.WriteHistory {
		wmean += v
	}
	wmean /= float64(len(s.WriteHistory))
	ratio := wmean / denom
	if ratio > 1 {
		ratio = 1
	}
	out[2*h+1] = ratio
	out[2*h+2] = math.Min(s.SizeGB, 4)
	out[2*h+3+int(s.Tier)] = 1
}

// RewardConfig holds Eq. 4's manually-set parameters α and Δ, plus a cost
// floor that keeps the reward finite on zero-cost days.
//
// NegCost switches to the linear shaping R = Δ − α·C, an ablation of the
// paper's reciprocal reward: the reciprocal is hypersensitive near zero
// cost, and the linear form makes "maximize reward" exactly "minimize
// expected cost". Both are exposed so the ablation bench can compare them.
type RewardConfig struct {
	Alpha     float64
	Delta     float64
	CostFloor float64
	NegCost   bool
	// AutoAlpha rescales α every step to the cost today's requests would
	// incur in the file's initial (default) tier, so the reward reads "how
	// much cheaper than the do-nothing default is this action, today".
	// Eq. 4 leaves α as a manually-set constant; a single global α makes
	// idle files earn thousands of times the reward of busy files (the
	// reciprocal spans the cost range), destabilising policy-gradient
	// training, and an α frozen at episode start starves exactly the states
	// where traffic later surges — the days that dominate the bill — of any
	// gradient signal. Per-step α keeps Eq. 4's reciprocal form while
	// making rewards O(1) for every file on every day.
	AutoAlpha bool
	// MaxRatio caps the reciprocal reward at α·MaxRatio + Δ (0 disables).
	// Without a cap, files whose baseline tier is far from optimal (an idle
	// file parked in hot can be ~18× cheaper in archive) dominate the
	// training signal and their preference bleeds into unrelated states.
	MaxRatio float64
}

// DefaultReward returns parameters that put typical per-file-day rewards in
// O(1) for the default pricing and workload scales. The floor sits below
// the cheapest storage-only day (a 100 MB archive day is ~3e-6 $) so tier
// differences on idle files still produce a reward gradient.
func DefaultReward() RewardConfig {
	return RewardConfig{Alpha: 1, Delta: 0, CostFloor: 1e-6, AutoAlpha: true, MaxRatio: 4}
}

// NegCostReward returns the linear-shaping configuration (see RewardConfig).
func NegCostReward() RewardConfig {
	return RewardConfig{Alpha: 10, Delta: 0, NegCost: true}
}

// Reward implements Eq. 4: α / C + Δ, with C floored at CostFloor; in
// NegCost mode it returns Δ − α·C instead.
func (rc RewardConfig) Reward(cost float64) float64 {
	if rc.NegCost {
		return rc.Delta - rc.Alpha*cost
	}
	if cost < rc.CostFloor {
		cost = rc.CostFloor
	}
	return rc.Alpha/cost + rc.Delta
}

// Env is one file's decision process over its daily request series, under
// the decision rule (package comment): day 0 is served in the initial tier
// and the episode decides days 1 through len(Reads)-1. At each step the
// agent observes the HistLen days before the day being decided, picks its
// tier, and pays that day's bill. The exported fields are set by
// NewEnv/Reinit and read-only afterwards.
type Env struct {
	Reads   []float64
	Writes  []float64
	SizeGB  float64
	HistLen int

	Reward RewardConfig

	day    int
	tier   pricing.Tier
	init   pricing.Tier
	coeffs costmodel.FileCoeffs // the file's prices, derived in Reinit

	// State-reuse mode (see EnableStateReuse): when on, returned States draw
	// their history slices from these two recycled buffers instead of fresh
	// allocations, alternating so the previously returned State survives one
	// more Step.
	reuse    bool
	histBuf  [2][]float64 // read histories, one per buffer
	writeBuf [2][]float64
	flip     int
}

// NewEnv constructs an environment. The first decision is made for day 1,
// from a window that repeats day 0 (the decision rule's left padding). A
// series under two days holds no decision and is an error.
func NewEnv(model *costmodel.Model, sizeGB float64, reads, writes []float64, initial pricing.Tier, histLen int, reward RewardConfig) (*Env, error) {
	e := &Env{}
	if err := e.Reinit(model, sizeGB, reads, writes, initial, histLen, reward); err != nil {
		return nil, err
	}
	return e, nil
}

// Reinit points the environment at a new file series in place, with exactly
// NewEnv's validation, and resets the episode. Reuse buffers (state-reuse
// mode, see EnableStateReuse) survive, so a serving loop that walks many
// files through one pooled Env allocates nothing per file.
func (e *Env) Reinit(model *costmodel.Model, sizeGB float64, reads, writes []float64, initial pricing.Tier, histLen int, reward RewardConfig) error {
	if err := CheckEpisode(sizeGB, reads, writes, initial, histLen); err != nil {
		return err
	}
	if len(reads) < 2 {
		return fmt.Errorf("mdp: a %d-day series holds no decision", len(reads))
	}
	e.Reads, e.Writes, e.SizeGB = reads, writes, sizeGB
	e.HistLen, e.Reward, e.init = histLen, reward, initial
	e.coeffs = model.FileCoeffs(sizeGB)
	e.Reset()
	return nil
}

// CheckEpisode validates one file's episode inputs: equal-length non-empty
// series, a positive size, a positive history length and a valid initial
// tier. Reinit applies it, and so does inference that builds states from a
// trace without an Env.
func CheckEpisode(sizeGB float64, reads, writes []float64, initial pricing.Tier, histLen int) error {
	if len(reads) == 0 || len(reads) != len(writes) {
		return fmt.Errorf("mdp: reads/writes lengths %d/%d", len(reads), len(writes))
	}
	if sizeGB <= 0 {
		return fmt.Errorf("mdp: size %v", sizeGB)
	}
	if histLen <= 0 {
		return fmt.Errorf("mdp: histLen %d", histLen)
	}
	if !initial.Valid() {
		return fmt.Errorf("mdp: invalid initial tier")
	}
	return nil
}

// EnableStateReuse switches the environment to recycled observations: States
// returned by Reset and Step borrow their history slices from two env-owned
// buffers, alternating between them, instead of allocating per step. A
// returned State therefore stays valid only until the second following
// Step/Reset — long enough for the decide-then-step loops in rl, which
// encode features before stepping. Callers that retain States (replay
// buffers, diagnostics) must not enable this.
func (e *Env) EnableStateReuse() { e.reuse = true }

// Reset rewinds the episode to day 1's decision, the file in its initial
// tier, and returns that state.
func (e *Env) Reset() State {
	e.day = 1
	e.tier = e.init
	return e.state()
}

// reward applies Eq. 4 with the per-step α scale (see AutoAlpha) and the
// MaxRatio cap. day is the day the cost was incurred on.
func (e *Env) reward(day int, cost float64) float64 {
	rc := e.Reward
	if rc.AutoAlpha {
		base := e.coeffs.ServeCost(e.init, e.Reads[day], e.Writes[day])
		if base < rc.CostFloor {
			base = rc.CostFloor
		}
		rc.Alpha *= base
	}
	r := rc.Reward(cost)
	if e.Reward.MaxRatio > 0 && !rc.NegCost {
		if cap := e.Reward.Alpha*e.Reward.MaxRatio + rc.Delta; r > cap {
			r = cap
		}
	}
	return r
}

// Days returns the length of the file's series, day 0 included.
func (e *Env) Days() int { return len(e.Reads) }

// Day returns the index of the next day to be decided.
func (e *Env) Day() int { return e.day }

// Tier returns the file's current tier.
func (e *Env) Tier() pricing.Tier { return e.tier }

// state builds the observation before deciding day e.day: the HistLen
// observed days before it (State.FillHistory).
func (e *Env) state() State {
	s := State{SizeGB: e.SizeGB, Tier: e.tier}
	if e.reuse {
		if cap(e.histBuf[e.flip]) < e.HistLen {
			e.histBuf[e.flip] = make([]float64, e.HistLen)
			e.writeBuf[e.flip] = make([]float64, e.HistLen)
		}
		s.ReadHistory = e.histBuf[e.flip][:e.HistLen]
		s.WriteHistory = e.writeBuf[e.flip][:e.HistLen]
		e.flip = 1 - e.flip
	} else {
		s.ReadHistory = make([]float64, e.HistLen)
		s.WriteHistory = make([]float64, e.HistLen)
	}
	s.FillHistory(e.Reads, e.Writes, nil, e.day)
	return s
}

// Step assigns the file to tier `action` for the current day, pays the
// day's bill, and advances. It returns the next state, the Eq. 4 reward,
// the day's cost, and whether the episode ended.
func (e *Env) Step(action pricing.Tier) (next State, reward, cost float64, done bool, err error) {
	if !action.Valid() {
		return State{}, 0, 0, false, fmt.Errorf("mdp: invalid action %d", int(action))
	}
	if e.day >= len(e.Reads) {
		return State{}, 0, 0, true, fmt.Errorf("mdp: episode already finished")
	}
	cost = e.coeffs.DayTotal(e.tier, action, e.Reads[e.day], e.Writes[e.day])
	costDay := e.day
	e.tier = action
	e.day++
	return e.state(), e.reward(costDay, cost), cost, e.day >= len(e.Reads), nil
}
