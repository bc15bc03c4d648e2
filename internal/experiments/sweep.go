package experiments

import (
	"fmt"

	"minicost/internal/costmodel"
	"minicost/internal/obs"
	"minicost/internal/par"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/trace"
)

// The horizon-sweep evaluation engine. Figs. 7 and 13 report every method's
// total cost at growing horizons (7, 14, … days); the per-window reference
// re-runs each assigner and re-prices its assignment from scratch at every
// horizon, paying the dominant full-trace cost O(H²) times. The engine pays
// it once:
//
//   - Online assigners (hot, cold, greedy, minicost) are causal — the day-d
//     decision only reads days ≤ d — so their plan over Window(0, d) is
//     bitwise the prefix of their full-horizon plan (asserted by
//     TestOnlinePlansArePrefixStable). One full-horizon Assign plus one
//     PlanCumCosts pass per file yields every prefix total exactly: the
//     cumulative breakdown after day d-1 IS PlanCost over the window.
//   - Optimal's plan is not prefix-stable, but its forward DP is: the first
//     d rows of the full-horizon tables are bitwise the tables a per-window
//     run builds. The engine runs policy.NewOptimalDP once per file and
//     backtracks + prices each window's plan lazily from the retained
//     tables — O(d) per horizon instead of O(d·Γ²) plus a fresh Assign.
//
// All arithmetic reuses the reference kernels (the costmodel flat-coefficient
// loops), so swept totals are bitwise identical to the per-window path —
// asserted against Fig7Reference/Fig13Reference at the Quick and Full
// configs in sweep_test.go.

// horizonEval is one assigner's memoized single-pass evaluation over a
// trace: the full-horizon assignment, the per-file per-day cumulative cost
// matrix, and (for Optimal) the retained per-file DP tables.
type horizonEval struct {
	tr      *trace.Trace
	m       *costmodel.Model
	init    pricing.Tier
	workers int

	asg costmodel.Assignment
	// cum[i][d] is file i's cumulative Breakdown over days 0..d, one flat
	// backing array for the whole matrix.
	cum [][]costmodel.Breakdown
	// dps holds Optimal's forward DP tables; nil for every other assigner.
	dps []*policy.OptimalDP
}

// newHorizonEval runs the assigner once over the full trace and builds the
// cumulative cost matrix.
func newHorizonEval(a policy.Assigner, tr *trace.Trace, m *costmodel.Model, initial pricing.Tier, workers int) (*horizonEval, error) {
	e := &horizonEval{tr: tr, m: m, init: initial, workers: workers}
	n := tr.NumFiles()
	if opt, ok := a.(policy.Optimal); ok {
		e.dps = make([]*policy.OptimalDP, n)
		e.asg = costmodel.NewAssignment(n, tr.Days)
		w := opt.Workers
		if w == 0 {
			w = workers
		}
		par.For(n, w, func(i int) {
			e.dps[i] = policy.NewOptimalDP(m, tr.Files[i].SizeGB, tr.Reads[i], tr.Writes[i], initial)
			e.dps[i].PlanPrefixInto(e.asg[i])
		})
	} else {
		asg, err := a.Assign(tr, m, initial)
		if err != nil {
			return nil, err
		}
		e.asg = asg
	}
	backing := make([]costmodel.Breakdown, n*tr.Days)
	e.cum = make([][]costmodel.Breakdown, n)
	errs := make([]error, n)
	par.For(n, workers, func(i int) {
		e.cum[i] = backing[i*tr.Days : (i+1)*tr.Days]
		_, errs[i] = m.PlanCumCosts(initial, e.asg[i], tr.Files[i].SizeGB, tr.Reads[i], tr.Writes[i], e.cum[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// prefixBreakdown returns the total bill of the first days days — bitwise
// identical to re-running the assigner on Window(0, days) and pricing it
// with TraceCost + SumBreakdowns.
func (e *horizonEval) prefixBreakdown(days int) (costmodel.Breakdown, error) {
	if days <= 0 || days > e.tr.Days {
		return costmodel.Breakdown{}, fmt.Errorf("experiments: horizon %d outside [1,%d]", days, e.tr.Days)
	}
	if e.dps != nil && days != e.tr.Days {
		return e.optimalPrefix(days), nil
	}
	var total costmodel.Breakdown
	for i := range e.cum {
		total = total.Add(e.cum[i][days-1])
	}
	return total, nil
}

// optimalPrefix backtracks each file's optimal plan for the window from the
// retained DP tables and prices it with the reference kernel. (At the full
// horizon the memoized cumulative matrix answers directly.)
func (e *horizonEval) optimalPrefix(days int) costmodel.Breakdown {
	bds := make([]costmodel.Breakdown, len(e.dps))
	par.For(len(e.dps), e.workers, func(i int) {
		plan := make(costmodel.Plan, days)
		e.dps[i].PlanPrefixInto(plan)
		// Lengths match by construction, so PlanCost cannot fail.
		bds[i], _ = e.m.PlanCost(e.init, plan, e.tr.Files[i].SizeGB, e.tr.Reads[i][:days], e.tr.Writes[i][:days])
	})
	return costmodel.SumBreakdowns(bds)
}

// fileBreakdown returns file i's full-horizon bill.
func (e *horizonEval) fileBreakdown(i int) costmodel.Breakdown {
	return e.cum[i][e.tr.Days-1]
}

// totalBreakdown returns the full-horizon bill over all files.
func (e *horizonEval) totalBreakdown() costmodel.Breakdown {
	var total costmodel.Breakdown
	for i := range e.cum {
		total = total.Add(e.fileBreakdown(i))
	}
	return total
}

// buildEvals evaluates several (assigner, trace) pairs concurrently — the
// methods×figures parallelism of the harness. Entries are independent, so
// they run on a par.Pool; each eval's inner file loops parallelize further.
// The workers bound caps both levels (0 = every core), so a Workers: 1
// config measures a genuinely serial evaluation.
func buildEvals(entries []evalEntry, m *costmodel.Model, initial pricing.Tier, workers int) ([]*horizonEval, error) {
	evals := make([]*horizonEval, len(entries))
	errs := make([]error, len(entries))
	poolSize := workers
	if poolSize <= 0 {
		poolSize = par.DefaultWorkers()
	}
	pool := par.NewPool(min(poolSize, len(entries)))
	for i, en := range entries {
		i, en := i, en
		// One duration histogram per method: how long each assigner's
		// single-pass horizon evaluation takes to build.
		lat := obs.Default().Timer("minicost_eval_build_seconds",
			"Single-pass horizon-eval build time, by method.", obs.L("method", en.a.Name()))
		pool.Submit(func() {
			sw := lat.Start()
			evals[i], errs[i] = newHorizonEval(en.a, en.tr, m, initial, workers)
			sw.Stop()
		})
	}
	pool.Close()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: evaluate %s: %w", entries[i].a.Name(), err)
		}
	}
	return evals, nil
}

// evalEntry is one (assigner, trace) pair to evaluate.
type evalEntry struct {
	a  policy.Assigner
	tr *trace.Trace
}

// methodEvals returns, building them once, the paper methods' single-pass
// evaluations on the test split, covering at least `days` days. A cached
// build over a horizon ≥ days is reused: online plans are prefix-stable and
// the Optimal DP forward-only, so a longer eval answers any shorter horizon.
// A request for a longer horizon (e.g. Fig8's full split after Fig7's capped
// sweep) rebuilds. The method order of the returned names matches
// Lab.assigners; two assigners mapping to one canonical name is an error
// (a duplicate would silently double-append into one series).
func (l *Lab) methodEvals(days int) ([]string, map[string]*horizonEval, error) {
	if l.evals != nil && l.evalsDays >= days {
		obs.Default().Counter("minicost_eval_memo_hits_total",
			"methodEvals calls answered from the memoized horizon evaluations.").Inc()
		return l.evalNames, l.evals, nil
	}
	obs.Default().Counter("minicost_eval_memo_misses_total",
		"methodEvals calls that had to (re)build the horizon evaluations.").Inc()
	assigners, err := l.assigners(true)
	if err != nil {
		return nil, nil, err
	}
	names, err := canonicalNames(assigners)
	if err != nil {
		return nil, nil, err
	}
	tr := l.Test
	if days < tr.Days {
		if tr, err = l.Test.Window(0, days); err != nil {
			return nil, nil, err
		}
	}
	entries := make([]evalEntry, len(assigners))
	for i, a := range assigners {
		entries[i] = evalEntry{a: a, tr: tr}
	}
	built, err := buildEvals(entries, l.Model, pricing.Hot, l.Cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	evals := make(map[string]*horizonEval, len(built))
	for i, e := range built {
		evals[names[i]] = e
	}
	l.evalNames, l.evals, l.evalsDays = names, evals, tr.Days
	return names, evals, nil
}

// canonicalNames maps each assigner to its paper method label, rejecting
// collisions: two assigners sharing a canonical name would silently
// double-append into one result series.
func canonicalNames(assigners []policy.Assigner) ([]string, error) {
	names := make([]string, len(assigners))
	byName := make(map[string]string, len(assigners))
	for i, a := range assigners {
		name := canonicalName(a)
		if prev, dup := byName[name]; dup {
			return nil, fmt.Errorf("experiments: assigners %q and %q both map to method %q", prev, a.Name(), name)
		}
		byName[name] = a.Name()
		names[i] = name
	}
	return names, nil
}

// ResetEvalCache drops the memoized single-pass evaluations so the next
// figure rebuilds them (BenchmarkFig7Horizons times repeated builds).
func (l *Lab) ResetEvalCache() {
	l.evalNames, l.evals, l.evalsDays = nil, nil, 0
}
