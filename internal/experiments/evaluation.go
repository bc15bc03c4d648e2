package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"minicost/internal/aggregate"
	"minicost/internal/par"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// MethodNames lists the paper's five methods in Fig. 7/8 plot order.
var MethodNames = []string{"hot", "cold", "greedy", "minicost", "optimal"}

// Fig7Result reproduces Fig. 7: total monetary cost for all files versus
// the number of days, for the five methods.
type Fig7Result struct {
	Days  []int
	Costs map[string][]float64 // method -> cost at each horizon
}

// fig7Horizons returns the paper's growing horizons (7, 14, … ≤ 35 days)
// that fit in a trace.
func fig7Horizons(traceDays int) []int {
	var out []int
	for days := 7; days <= traceDays && days <= 35; days += 7 {
		out = append(out, days)
	}
	return out
}

// Fig7 evaluates the five methods on the test split over growing horizons
// (7, 14, …, up to the trace length). It runs on the single-pass sweep
// engine: each method is assigned and priced once over the longest horizon
// and every prefix total is read off the memoized cumulative cost matrix
// (Optimal backtracks each window's plan from its retained DP tables) —
// bitwise identical to the per-window Fig7Reference.
func (l *Lab) Fig7() (*Fig7Result, error) {
	res := &Fig7Result{Costs: make(map[string][]float64)}
	res.Days = fig7Horizons(l.Test.Days)
	if len(res.Days) == 0 {
		return nil, fmt.Errorf("experiments: test trace too short (%d days)", l.Test.Days)
	}
	names, evals, err := l.methodEvals(res.Days[len(res.Days)-1])
	if err != nil {
		return nil, err
	}
	for _, days := range res.Days {
		for _, name := range names {
			bd, err := evals[name].prefixBreakdown(days)
			if err != nil {
				return nil, err
			}
			res.Costs[name] = append(res.Costs[name], bd.Total())
		}
	}
	return res, nil
}

// Fig7Reference recomputes Fig. 7 with the per-window engine: every method
// re-assigned and re-priced from scratch at each horizon. Kept as the
// equivalence oracle the sweep engine is tested against and as the baseline
// of BenchmarkFig7Horizons.
func (l *Lab) Fig7Reference() (*Fig7Result, error) {
	assigners, err := l.assigners(true)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Costs: make(map[string][]float64)}
	res.Days = fig7Horizons(l.Test.Days)
	if len(res.Days) == 0 {
		return nil, fmt.Errorf("experiments: test trace too short (%d days)", l.Test.Days)
	}
	for _, days := range res.Days {
		window, err := l.Test.Window(0, days)
		if err != nil {
			return nil, err
		}
		for _, a := range assigners {
			bd, err := l.evalCost(a, window)
			if err != nil {
				return nil, err
			}
			res.Costs[canonicalName(a)] = append(res.Costs[canonicalName(a)], bd.Total())
		}
	}
	return res, nil
}

// canonicalName maps assigner names onto the paper's method labels.
func canonicalName(a policy.Assigner) string {
	switch a.Name() {
	case "hot":
		return "hot"
	case "cool", "cold":
		return "cold"
	case "greedy", "greedy-oracle":
		return "greedy"
	case "minicost":
		return "minicost"
	case "optimal":
		return "optimal"
	}
	return a.Name()
}

// Render writes the Fig. 7 series.
func (r *Fig7Result) Render(w io.Writer) {
	rows := [][]string{{"days"}}
	rows[0] = append(rows[0], MethodNames...)
	for i, d := range r.Days {
		row := []string{fmt.Sprintf("%d", d)}
		for _, m := range MethodNames {
			if series, ok := r.Costs[m]; ok && i < len(series) {
				row = append(row, f4(series[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	renderTable(w, rows)
}

// Fig8Result reproduces Fig. 8: daily monetary cost per σ bucket for the
// five methods.
type Fig8Result struct {
	Costs map[string][trace.NumBuckets]float64
	Files [trace.NumBuckets]int
}

// Fig8 evaluates each method and buckets per-file costs by realized CV,
// normalised per day. It reuses the lab's memoized full-horizon sweep
// evaluations: per-file bills are the last column of each method's
// cumulative cost matrix, so no assigner or pricing pass re-runs here.
func (l *Lab) Fig8() (*Fig8Result, error) {
	tr := l.Test
	names, evals, err := l.methodEvals(tr.Days)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Costs: make(map[string][trace.NumBuckets]float64)}
	buckets := make([]int, tr.NumFiles())
	for i := range buckets {
		buckets[i] = trace.BucketOf(trace.SigmaCV(tr.Reads[i]))
		res.Files[buckets[i]]++
	}
	for _, name := range names {
		e := evals[name]
		var byBucket [trace.NumBuckets]float64
		for i := range buckets {
			byBucket[buckets[i]] += e.fileBreakdown(i).Total() / float64(tr.Days)
		}
		res.Costs[name] = byBucket
	}
	return res, nil
}

// Render writes the Fig. 8 table.
func (r *Fig8Result) Render(w io.Writer) {
	rows := [][]string{{"sigma-bucket", "files"}}
	rows[0] = append(rows[0], MethodNames...)
	for b := 0; b < trace.NumBuckets; b++ {
		row := []string{trace.BucketLabel(b), fmt.Sprintf("%d", r.Files[b])}
		for _, m := range MethodNames {
			if series, ok := r.Costs[m]; ok {
				row = append(row, fmt.Sprintf("%.5f", series[b]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	renderTable(w, rows)
}

// Fig12Result reproduces Fig. 12: per-day computing overhead of the online
// methods, measured on this machine and linearly extrapolated to the
// paper's 4 M files. Both a single-core row (the paper's setting) and a row
// at the lab's configured worker count are reported, so the 4 M-file
// extrapolation is honest about parallel serving.
type Fig12Result struct {
	Days int
	// MeasuredPerDay is the mean wall-clock seconds one decision day takes
	// at the lab's file count on one core; ScaledMinutes extrapolates to
	// 4 M files.
	MeasuredPerDay map[string]float64
	ScaledMinutes  map[string]float64
	// MeasuredPerDayPar / ScaledMinutesPar repeat the measurement with
	// ParWorkers cores serving decisions in parallel.
	MeasuredPerDayPar map[string]float64
	ScaledMinutesPar  map[string]float64
	ParWorkers        int
	Files             int
}

// Fig12 times each online method's daily decision loop, once single-core
// and once at Config.Workers workers (0 = every core).
func (l *Lab) Fig12() (*Fig12Result, error) {
	agent, err := l.TrainAgent()
	if err != nil {
		return nil, err
	}
	tr := l.Test
	parWorkers := l.Cfg.Workers
	if parWorkers <= 0 {
		parWorkers = par.DefaultWorkers()
	}
	res := &Fig12Result{
		Days:              tr.Days,
		Files:             tr.NumFiles(),
		MeasuredPerDay:    make(map[string]float64),
		ScaledMinutes:     make(map[string]float64),
		MeasuredPerDayPar: make(map[string]float64),
		ScaledMinutesPar:  make(map[string]float64),
		ParWorkers:        parWorkers,
	}
	methods := func(workers int) []policy.Assigner {
		return []policy.Assigner{
			Hot(),
			Cold(),
			policy.Greedy{Workers: workers},
			policy.RL{Agent: agent, HistLen: l.Cfg.Net.HistLen, Workers: workers},
		}
	}
	scale := float64(PaperScaleFiles) / float64(tr.NumFiles()) / 60
	for _, row := range []struct {
		workers int
		perDay  map[string]float64
		scaled  map[string]float64
	}{
		{1, res.MeasuredPerDay, res.ScaledMinutes},
		{parWorkers, res.MeasuredPerDayPar, res.ScaledMinutesPar},
	} {
		for _, a := range methods(row.workers) {
			start := time.Now() //minicost:allow-wallclock Fig. 12 measures decision overhead; the timing is the result
			if _, err := a.Assign(tr, l.Model, pricing.Hot); err != nil {
				return nil, err
			}
			perDay := time.Since(start).Seconds() / float64(tr.Days) //minicost:allow-wallclock Fig. 12 overhead measurement
			name := canonicalName(a)
			row.perDay[name] = perDay
			row.scaled[name] = perDay * scale
		}
	}
	return res, nil
}

// Render writes the Fig. 12 table.
func (r *Fig12Result) Render(w io.Writer) {
	filesCol := "s/day@" + fmt.Sprint(r.Files) + "files"
	cores := fmt.Sprintf("@%dcores", r.ParWorkers)
	rows := [][]string{{"method", filesCol, "min/day@4Mfiles", filesCol + cores, "min/day@4Mfiles" + cores}}
	names := make([]string, 0, len(r.MeasuredPerDay))
	//minicost:allow-maprange keys are sorted before use
	for n := range r.MeasuredPerDay {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rows = append(rows, []string{
			n,
			fmt.Sprintf("%.6f", r.MeasuredPerDay[n]), fmt.Sprintf("%.3f", r.ScaledMinutes[n]),
			fmt.Sprintf("%.6f", r.MeasuredPerDayPar[n]), fmt.Sprintf("%.3f", r.ScaledMinutesPar[n]),
		})
	}
	renderTable(w, rows)
}

// Fig13Result reproduces Fig. 13: total cost versus days for Greedy,
// MiniCost, MiniCost with the aggregation enhancement, and Optimal.
type Fig13Result struct {
	Days             []int
	Costs            map[string][]float64
	AggregatedGroups int
}

// fig13Setup aggregates the top-Ψ groups and returns the workload, the
// rewritten workload, and the aggregated-group count shared by Fig13 and
// Fig13Reference.
func (l *Lab) fig13Setup(psi int) (tr, aggTr *trace.Trace, groups int, err error) {
	// Aggregation is evaluated on the full workload: the 80/20 file split
	// tears concurrency groups apart (a group survives a Subset only when
	// every member lands on the same side), and the enhancement is an
	// operational mechanism, not a generalisation test.
	tr = l.Trace
	if len(tr.Groups) == 0 {
		return nil, nil, 0, aggregate.ErrNoGroups
	}
	cfg := aggregate.DefaultConfig()
	if psi > 0 {
		cfg.Psi = psi
	}
	scores, err := aggregate.ScoreGroups(tr, l.Model, cfg, min(cfg.WindowDays, tr.Days))
	if err != nil {
		return nil, nil, 0, err
	}
	top := aggregate.SelectTop(scores, cfg.Psi)
	ids := make([]int, len(top))
	for i, s := range top {
		ids[i] = s.Group
	}
	aggTr = tr
	if len(ids) > 0 {
		aggTr, err = aggregate.ApplyToTrace(tr, ids)
		if err != nil {
			return nil, nil, 0, err
		}
	}
	return tr, aggTr, len(ids), nil
}

// fig13Methods returns Fig. 13's four series in plot order, each bound to
// the workload it is priced on.
func (l *Lab) fig13Methods(agent *rl.Agent, tr, aggTr *trace.Trace) []struct {
	name string
	a    policy.Assigner
	tr   *trace.Trace
} {
	mini := policy.RL{Agent: agent, HistLen: l.Cfg.Net.HistLen, Workers: l.Cfg.Workers}
	return []struct {
		name string
		a    policy.Assigner
		tr   *trace.Trace
	}{
		{"greedy", policy.Greedy{Workers: l.Cfg.Workers}, tr},
		{"minicost", mini, tr},
		{"minicost-w/E", mini, aggTr},
		{"optimal", policy.Optimal{Workers: l.Cfg.Workers}, tr},
	}
}

// Fig13 evaluates the enhancement: groups with positive Ω (top-Ψ, measured
// over the first week) are aggregated and all methods re-priced on the
// rewritten request stream. Like Fig7 it runs on the single-pass sweep
// engine — each (method, workload) pair is assigned and priced once over
// the longest horizon, concurrently across pairs, and prefix totals are
// read off the cumulative cost matrices — bitwise identical to the
// per-window Fig13Reference.
func (l *Lab) Fig13(psi int) (*Fig13Result, error) {
	agent, err := l.TrainAgent()
	if err != nil {
		return nil, err
	}
	tr, aggTr, groups, err := l.fig13Setup(psi)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{Costs: make(map[string][]float64), AggregatedGroups: groups}
	res.Days = fig7Horizons(tr.Days)
	if len(res.Days) == 0 {
		return res, nil
	}
	maxDays := res.Days[len(res.Days)-1]
	methods := l.fig13Methods(agent, tr, aggTr)
	entries := make([]evalEntry, len(methods))
	for i, m := range methods {
		w := m.tr
		if maxDays < w.Days {
			if w, err = m.tr.Window(0, maxDays); err != nil {
				return nil, err
			}
		}
		entries[i] = evalEntry{a: m.a, tr: w}
	}
	evals, err := buildEvals(entries, l.Model, pricing.Hot, l.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	for _, days := range res.Days {
		for i, m := range methods {
			bd, err := evals[i].prefixBreakdown(days)
			if err != nil {
				return nil, err
			}
			res.Costs[m.name] = append(res.Costs[m.name], bd.Total())
		}
	}
	return res, nil
}

// Fig13Reference recomputes Fig. 13 with the per-window engine: every
// (method, workload) pair re-assigned and re-priced from scratch at each
// horizon. Kept as the equivalence oracle the sweep engine is tested
// against.
func (l *Lab) Fig13Reference(psi int) (*Fig13Result, error) {
	agent, err := l.TrainAgent()
	if err != nil {
		return nil, err
	}
	tr, aggTr, groups, err := l.fig13Setup(psi)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{Costs: make(map[string][]float64), AggregatedGroups: groups}
	res.Days = fig7Horizons(tr.Days)
	for _, days := range res.Days {
		for _, m := range l.fig13Methods(agent, tr, aggTr) {
			window, err := m.tr.Window(0, days)
			if err != nil {
				return nil, err
			}
			bd, err := l.evalCost(m.a, window)
			if err != nil {
				return nil, err
			}
			res.Costs[m.name] = append(res.Costs[m.name], bd.Total())
		}
	}
	return res, nil
}

// Render writes the Fig. 13 series.
func (r *Fig13Result) Render(w io.Writer) {
	methods := []string{"greedy", "minicost", "minicost-w/E", "optimal"}
	rows := [][]string{append([]string{"days"}, methods...)}
	for i, d := range r.Days {
		row := []string{fmt.Sprintf("%d", d)}
		for _, m := range methods {
			row = append(row, f4(r.Costs[m][i]))
		}
		rows = append(rows, row)
	}
	renderTable(w, rows)
	fmt.Fprintf(w, "aggregated groups: %d\n", r.AggregatedGroups)
}

// CostBreakdownTable renders a per-method component breakdown on the test
// split — an extension table useful for understanding where each method
// spends. It reads the totals off the lab's memoized full-horizon sweep
// evaluations, so after Fig8 it costs no pricing pass at all.
func (l *Lab) CostBreakdownTable(w io.Writer) error {
	names, evals, err := l.methodEvals(l.Test.Days)
	if err != nil {
		return err
	}
	rows := [][]string{{"method", "total", "storage", "read", "write", "transition"}}
	for _, name := range names {
		bd := evals[name].totalBreakdown()
		rows = append(rows, []string{
			name, f4(bd.Total()), f4(bd.Storage), f4(bd.Read), f4(bd.Write), f4(bd.Transition),
		})
	}
	renderTable(w, rows)
	return nil
}
