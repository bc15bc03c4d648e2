// Package aggregate implements the paper's enhancement (§5.2): aggregating
// concurrently-requested data files into replica objects so one request to
// the replica replaces one request to each member.
//
// For a group of n files with r_dc concurrent requests, aggregation saves
// (n−1)·r_dc read operations per day but stores an extra copy of every
// member (Eqs. 13–14; the per-GB retrieval terms cancel exactly). The
// aggregation coefficient
//
//	Ω = (n−1)·r_dc / Σ D_i − u_p / u_rf        (Eq. 16)
//
// is positive exactly when aggregation pays (Eq. 15). All rates here are
// per-day: r_dc is the mean daily concurrent-request count over the
// evaluation window and u_p the replica tier's per-GB-day storage price.
package aggregate

import (
	"errors"
	"fmt"
	"sort"

	"minicost/internal/costmodel"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// Config controls the aggregation procedure.
type Config struct {
	// Psi (Ψ) caps how many groups are aggregated, best-Ω first (§5.2:
	// "select the top manually set Ψ groups").
	Psi int
	// WindowDays is the history window over which the mean concurrent
	// request rate is measured (the paper uses one week).
	WindowDays int
	// EvictAfter is the number of consecutive evaluations with Ω < 0 after
	// which an aggregated replica is deleted (the paper: "two consecutive
	// weeks").
	EvictAfter int
	// ReplicaTier is the tier replicas are created in.
	ReplicaTier pricing.Tier
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{Psi: 64, WindowDays: 7, EvictAfter: 2, ReplicaTier: pricing.Hot}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Psi < 0 {
		return fmt.Errorf("aggregate: Psi %d", c.Psi)
	}
	if c.WindowDays <= 0 {
		return fmt.Errorf("aggregate: WindowDays %d", c.WindowDays)
	}
	if c.EvictAfter <= 0 {
		return fmt.Errorf("aggregate: EvictAfter %d", c.EvictAfter)
	}
	if !c.ReplicaTier.Valid() {
		return fmt.Errorf("aggregate: invalid replica tier")
	}
	return nil
}

// Omega computes Eq. 16 for a group: n members totalling sumSizeGB, with a
// mean daily concurrent-request rate rdc, a replica stored at upPerGBDay
// ($/GB/day) and reads priced at urfPerOp ($/operation).
func Omega(n int, rdc, sumSizeGB, upPerGBDay, urfPerOp float64) float64 {
	if n < 2 || sumSizeGB <= 0 || urfPerOp <= 0 {
		return -1
	}
	return float64(n-1)*rdc/sumSizeGB - upPerGBDay/urfPerOp
}

// RdcThreshold returns Eq. 15's minimum concurrent-request rate for
// aggregation of the group to pay off.
func RdcThreshold(n int, sumSizeGB, upPerGBDay, urfPerOp float64) float64 {
	if n < 2 {
		return 0
	}
	return upPerGBDay * sumSizeGB / (float64(n-1) * urfPerOp)
}

// GroupScore is one group's evaluation.
type GroupScore struct {
	Group int // index into the trace's Groups
	Omega float64
	// MeanRdc is the window-mean daily concurrent request rate.
	MeanRdc   float64
	SumSizeGB float64
}

// ScoreGroups evaluates Ω for every group over the trailing window ending
// just before day `day` (exclusive). A window extending past the available
// history is truncated.
func ScoreGroups(tr *trace.Trace, m *costmodel.Model, cfg Config, day int) ([]GroupScore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if day <= 0 || day > tr.Days {
		return nil, fmt.Errorf("aggregate: day %d outside (0,%d]", day, tr.Days)
	}
	lo := day - cfg.WindowDays
	if lo < 0 {
		lo = 0
	}
	up := m.Policy.StoragePerGBDay(cfg.ReplicaTier)
	urf := m.Policy.ReadOpPrice(cfg.ReplicaTier)
	out := make([]GroupScore, 0, len(tr.Groups))
	for gi, g := range tr.Groups {
		sum := 0.0
		for d := lo; d < day; d++ {
			sum += g.Concurrent[d]
		}
		rdc := sum / float64(day-lo)
		size := GroupSizeGB(tr, gi)
		out = append(out, GroupScore{
			Group:     gi,
			Omega:     Omega(len(g.Members), rdc, size, up, urf),
			MeanRdc:   rdc,
			SumSizeGB: size,
		})
	}
	return out, nil
}

// SelectTop implements Algorithm 2's selection: groups with Ω > 0 sorted
// descending, capped at Ψ.
func SelectTop(scores []GroupScore, psi int) []GroupScore {
	pos := make([]GroupScore, 0, len(scores))
	for _, s := range scores {
		if s.Omega > 0 {
			pos = append(pos, s)
		}
	}
	sort.Slice(pos, func(i, j int) bool { return pos[i].Omega > pos[j].Omega })
	if psi > 0 && len(pos) > psi {
		pos = pos[:psi]
	}
	return pos
}

// Aggregator runs the periodic procedure of Algorithm 2, tracking which
// groups currently have replicas and evicting persistent losers.
type Aggregator struct {
	cfg   Config
	model *costmodel.Model
	// active maps group index -> consecutive negative-Ω evaluations.
	active map[int]int
}

// New returns an aggregator.
func New(m *costmodel.Model, cfg Config) (*Aggregator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Aggregator{cfg: cfg, model: m, active: make(map[int]int)}, nil
}

// Active returns the currently aggregated group indices (sorted).
func (a *Aggregator) Active() []int {
	out := make([]int, 0, len(a.active))
	//minicost:allow-maprange keys are sorted before returning
	for gi := range a.active {
		out = append(out, gi)
	}
	sort.Ints(out)
	return out
}

// IsActive reports whether the group currently has a replica.
func (a *Aggregator) IsActive(group int) bool {
	_, ok := a.active[group]
	return ok
}

// Update re-evaluates all groups at the given day and returns which groups
// to aggregate (Create) and which replicas to drop (Delete). The paper's
// rules: create the top-Ψ positive-Ω groups; delete a replica once Ω has
// been negative for EvictAfter consecutive evaluations.
func (a *Aggregator) Update(tr *trace.Trace, day int) (create, del []int, err error) {
	scores, err := ScoreGroups(tr, a.model, a.cfg, day)
	if err != nil {
		return nil, nil, err
	}
	top := SelectTop(scores, a.cfg.Psi)
	selected := make(map[int]bool, len(top))
	for _, s := range top {
		selected[s.Group] = true
	}
	// New aggregations.
	for _, s := range top {
		if !a.IsActive(s.Group) {
			a.active[s.Group] = 0
			create = append(create, s.Group)
		}
	}
	// Existing replicas: reset or grow the negative streak.
	byGroup := make(map[int]GroupScore, len(scores))
	for _, s := range scores {
		byGroup[s.Group] = s
	}
	//minicost:allow-maprange per-group updates commute; create/del are sorted before returning
	for gi := range a.active {
		s, ok := byGroup[gi]
		switch {
		case ok && s.Omega >= 0:
			a.active[gi] = 0
		default:
			a.active[gi]++
			if a.active[gi] >= a.cfg.EvictAfter {
				delete(a.active, gi)
				del = append(del, gi)
			}
		}
	}
	sort.Ints(create)
	sort.Ints(del)
	return create, del, nil
}

// ErrNoGroups reports a trace without concurrency information.
var ErrNoGroups = errors.New("aggregate: trace has no concurrency groups")

// Lifetime is one replica's life: group Group's replica is live from day
// From through day To−1.
type Lifetime struct{ Group, From, To int }

// GroupSizeGB is the size of group gi's replica: a copy of every member
// (§5.2).
func GroupSizeGB(tr *trace.Trace, gi int) float64 {
	size := 0.0
	for _, m := range tr.Groups[gi].Members {
		size += tr.Files[m].SizeGB
	}
	return size
}

// Reroute returns a copy of the trace's read series with each lifetime's
// concurrent reads moved off its group's members: on every day a replica is
// live, each member's reads drop by the group's r_dc, clamped at 0, because
// those requests now hit the replica. Lifetimes apply in ascending group
// order whatever order they are listed in, so the result is the same for
// every caller. The result shares no storage with tr.
func Reroute(tr *trace.Trace, lives []Lifetime) ([][]float64, error) {
	if len(tr.Groups) == 0 {
		return nil, ErrNoGroups
	}
	sorted := append([]Lifetime(nil), lives...)
	for _, l := range sorted {
		if l.Group < 0 || l.Group >= len(tr.Groups) {
			return nil, fmt.Errorf("aggregate: group %d out of range", l.Group)
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Group < sorted[j].Group })
	reads := make([][]float64, len(tr.Reads))
	for i := range tr.Reads {
		reads[i] = append([]float64(nil), tr.Reads[i]...)
	}
	for _, l := range sorted {
		g := tr.Groups[l.Group]
		for d := l.From; d < l.To; d++ {
			for _, m := range g.Members {
				reads[m][d] = max(reads[m][d]-g.Concurrent[d], 0)
			}
		}
	}
	return reads, nil
}

// Bill prices plan on tr with the enhancement on, the bill core.System.Run
// and Fig. 13 share. Algorithm 2 runs every cfg.WindowDays days from day
// WindowDays on (Ω is scored over the week before, so day 0 has nothing to
// score): each replica it creates on day d and evicts on day e is a
// Lifetime{Group, d, e}, with e = tr.Days if it is still live at the end.
// The members are billed by TraceCost against the unchanged plan on reads
// Reroute moved off them, and each lifetime by PlanCost in cfg.ReplicaTier
// for its days with the group's concurrent reads. activeAtEnd counts the
// replicas live at the end of the trace. With no lifetime the bill is
// TraceCost's on tr bit for bit.
func Bill(m *costmodel.Model, tr *trace.Trace, plan costmodel.Assignment, initial []pricing.Tier, cfg Config, workers int) (bill costmodel.Breakdown, activeAtEnd int, err error) {
	lives, err := lifetimes(m, tr, cfg)
	if err != nil {
		return costmodel.Breakdown{}, 0, err
	}
	billed := tr
	if len(lives) > 0 {
		reads, err := Reroute(tr, lives)
		if err != nil {
			return costmodel.Breakdown{}, 0, err
		}
		billed = &trace.Trace{Days: tr.Days, Files: tr.Files, Reads: reads, Writes: tr.Writes}
	}
	bds, err := m.TraceCost(billed, plan, initial, workers)
	if err != nil {
		return costmodel.Breakdown{}, 0, err
	}
	for _, l := range lives {
		days := l.To - l.From
		bd, err := m.PlanCost(cfg.ReplicaTier, costmodel.Uniform(cfg.ReplicaTier, days), GroupSizeGB(tr, l.Group),
			tr.Groups[l.Group].Concurrent[l.From:l.To], make([]float64, days))
		if err != nil {
			return costmodel.Breakdown{}, 0, err
		}
		bds = append(bds, bd)
		if l.To == tr.Days {
			activeAtEnd++
		}
	}
	return costmodel.SumBreakdowns(bds), activeAtEnd, nil
}

// lifetimes runs Algorithm 2 over tr every cfg.WindowDays days and returns
// the replica lifetimes it produces in creation order.
func lifetimes(m *costmodel.Model, tr *trace.Trace, cfg Config) ([]Lifetime, error) {
	agg, err := New(m, cfg)
	if err != nil {
		return nil, err
	}
	var lives []Lifetime
	open := make(map[int]int) // group -> index of its live replica in lives
	for day := cfg.WindowDays; day < tr.Days; day += cfg.WindowDays {
		create, del, err := agg.Update(tr, day)
		if err != nil {
			return nil, err
		}
		for _, gi := range del {
			lives[open[gi]].To = day
			delete(open, gi)
		}
		for _, gi := range create {
			open[gi] = len(lives)
			lives = append(lives, Lifetime{Group: gi, From: day, To: tr.Days})
		}
	}
	return lives, nil
}
