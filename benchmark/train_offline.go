package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// a3cConfig is the paper's training configuration pinned to one worker and
// serial updates, so a run is a pure function of the seed and uses one
// thread.
func a3cConfig(net rl.NetConfig, envs int, seed uint64) rl.A3CConfig {
	cfg := rl.DefaultA3CConfig()
	cfg.Net = net
	cfg.Workers = 1
	cfg.EnvsPerWorker = envs
	cfg.Parallelism = 0
	cfg.Seed = seed
	return cfg
}

// genTrace generates a seeded synthetic trace on one thread.
func genTrace(files, days int, seed uint64) (*trace.Trace, error) {
	gen := trace.DefaultGenConfig()
	gen.NumFiles, gen.Days, gen.Seed, gen.Workers = files, days, seed, 1
	return trace.Generate(gen)
}

// paramHash is an FNV-1a hash over the trainer's published actor and critic
// parameter bits.
func paramHash(a *rl.A3C) uint64 {
	h := fnv.New64a()
	var b [8]byte
	actor, critic := a.ParamVectors()
	for _, v := range [][]float64{actor, critic} {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// fitted is what train-offline's set-up produces: a servable agent.
type fitted struct {
	agent   *rl.Agent
	stats   rl.TrainStats
	genS    float64
	train   *trace.Trace
	heldOut *trace.Trace
}

// runTrainOffline is what a customer does before deploying. Set-up
// generates the traces and fits a policy with snapshot selection (fixed
// work: its result repeats exactly for a seed); the measured seconds are
// split between timed training slices at the paper's network and repeated
// pricing of the fitted agent against the four baselines.
func runTrainOffline(rc *runCtx) (*result, error) {
	p := rc.Params.Train
	res := newResult("train-offline", p)
	t := &tally{}
	model := costmodel.New(pricing.Azure())
	reward := mdp.DefaultReward()

	// peak_rss_mb is this process's own high-water mark here. When earlier
	// workloads ran in the same process (--workload all, -repeat-check), give
	// their memory back and restart the mark (clear_refs 5 resets VmHWM).
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: a refusal only leaves the mark high

	var fit *fitted
	var hashes []uint64
	err := res.phase("setup", func() (err error) {
		fit, res.EndToEnd["setup_s"], err = repeatSetup(rc.setupReps(), func() (*fitted, error) {
			start := time.Now()
			tr, err := genTrace(p.TrainFiles, p.TrainDays, rc.Seed)
			if err != nil {
				return nil, err
			}
			held, err := genTrace(p.EvalFiles, p.EvalDays, rc.Seed^0x4e1d)
			if err != nil {
				return nil, err
			}
			genS := time.Since(start).Seconds()
			a3c, err := rl.NewA3C(a3cConfig(p.FitNet, p.TrainEnvs, rc.Seed))
			if err != nil {
				return nil, err
			}
			agent, stats, err := rl.TrainWithSelection(a3c, model, tr, reward, p.FitSteps, p.FitChunks, pricing.Hot)
			if err != nil {
				return nil, err
			}
			hashes = append(hashes, paramHash(a3c))
			return &fitted{agent: agent, stats: stats, genS: genS, train: tr, heldOut: held}, nil
		}, func(*fitted) {})
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, h := range hashes[1:] {
		t.check(h == hashes[0], "fit is not seed-deterministic: parameter hash %x, first fit %x", h, hashes[0])
	}
	res.Layers["trace.generate_s"] = fit.genS
	res.Layers["rl.train_updates"] = float64(fit.stats.Updates)
	res.Layers["rl.train_episodes"] = float64(fit.stats.Episodes)

	// Phase train: timed TrainFrom slices at the paper's network.
	a3c, err := rl.NewA3C(a3cConfig(p.TrainNet, p.TrainEnvs, rc.Seed))
	if err != nil {
		return nil, err
	}
	src, err := rl.NewTraceSource(model, fit.train, p.TrainNet.HistLen, reward, pricing.Hot)
	if err != nil {
		return nil, err
	}
	var stepRates []float64
	begin := time.Now()
	for target := p.TrainSlice; rc.keepMeasuring(begin, rc.Seconds*p.TrainShare, minSamples); target += p.TrainSlice {
		start := time.Now()
		stats, err := a3c.TrainFrom(src, target)
		t.request("TrainFrom slice", err)
		if err != nil {
			return nil, err
		}
		stepRates = append(stepRates, float64(stats.Steps)/time.Since(start).Seconds())
		// Each TrainFrom call builds fresh worker state. Collecting it between
		// slices, outside the timed section, makes peak RSS the working set of
		// one slice rather than an accident of when the collector last ran.
		runtime.GC()
	}
	res.PhaseSeconds["train"] = time.Since(begin).Seconds()
	res.EndToEnd["file_days_per_s"] = median(stepRates)
	res.Detail["train_slices"] = float64(len(stepRates))

	// Phase eval: price the fitted agent and the four baselines on the
	// held-out trace, over and over. Bills are recomputed every pass and
	// must not change between passes.
	methods := []policy.Assigner{
		policy.RL{Agent: fit.agent, HistLen: p.FitNet.HistLen, Workers: 1},
		policy.Static{Tier: pricing.Hot},
		policy.Static{Tier: pricing.Cool},
		policy.Greedy{Workers: 1},
		policy.Optimal{Workers: 1},
	}
	bills := make([]float64, len(methods))
	assignNS := make([][]float64, len(methods))
	var passMS, costNS []float64
	fileDays := float64(fit.heldOut.NumFiles() * fit.heldOut.Days)
	begin = time.Now()
	for pass := 0; rc.keepMeasuring(begin, rc.Seconds*(1-p.TrainShare), len(passMS)); pass++ {
		start := time.Now()
		for mi, m := range methods {
			s0 := time.Now()
			asg, err := m.Assign(fit.heldOut, model, pricing.Hot)
			s1 := time.Now()
			var bds []costmodel.Breakdown
			if err == nil {
				bds, err = model.TraceCost(fit.heldOut, asg, nil, 1) // nil: every file starts hot
			}
			t.request("evaluate "+m.Name(), err)
			if err != nil {
				return nil, err
			}
			assignNS[mi] = append(assignNS[mi], float64(s1.Sub(s0).Nanoseconds())/fileDays)
			costNS = append(costNS, float64(time.Since(s1).Nanoseconds())/fileDays)
			bill := costmodel.SumBreakdowns(bds).Total()
			if pass > 0 && bill != bills[mi] { //minicost:allow-floatcmp repeat evaluations must be bit-identical
				t.check(false, "%s bill changed between passes: %v then %v", m.Name(), bills[mi], bill)
			}
			bills[mi] = bill
		}
		passMS = append(passMS, ms(time.Since(start)))
	}
	res.PhaseSeconds["eval"] = time.Since(begin).Seconds()
	if err := latencyMetrics(res, passMS); err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB("self")
	if err != nil {
		return nil, err
	}
	res.EndToEnd["peak_rss_mb"] = rss

	agentBill, hot, cool, greedy, optimal := bills[0], bills[1], bills[2], bills[3], bills[4]
	res.Layers["policy.cost_ratio"] = agentBill / optimal
	res.Layers["policy.greedy_cost_ratio"] = greedy / optimal
	res.Layers["policy.hot_cost_ratio"] = hot / optimal
	res.Detail["bill_cold_over_optimal"] = cool / optimal
	res.Layers["policy.rl_assign_us_per_file_day"] = median(assignNS[0]) / 1e3
	res.Layers["policy.greedy_ns_per_file_day"] = median(assignNS[3])
	res.Layers["policy.optimal_ns_per_file_day"] = median(assignNS[4])
	res.Layers["costmodel.tracecost_ns_per_file_day"] = median(costNS)
	res.Detail["eval_file_days_per_s"] = float64(len(methods)) * fileDays / (median(passMS) / 1e3)

	// Output checks: the DP optimum bounds every method. (That the fitted
	// agent beats Hot is a quality figure, policy.cost_ratio against
	// policy.hot_cost_ratio, not a check: it needs far more training than a
	// benchmark set-up can afford — see README.md.)
	const eps = 1e-9
	t.check(optimal <= greedy*(1+eps), "Optimal bill %v above Greedy %v", optimal, greedy)
	t.check(optimal <= agentBill*(1+eps), "Optimal bill %v above the fitted agent's %v", optimal, agentBill)
	t.check(optimal <= hot*(1+eps) && optimal <= cool*(1+eps), "Optimal bill %v above a static tier (hot %v, cold %v)", optimal, hot, cool)

	// Output check: two same-seed training runs end on the same parameters.
	err = res.phase("verify", func() error {
		var h [2]uint64
		for i := range h {
			a, err := rl.NewA3C(a3cConfig(p.TrainNet, p.TrainEnvs, rc.Seed))
			if err != nil {
				return err
			}
			if _, err := a.TrainFrom(src, p.HashSteps); err != nil {
				return err
			}
			h[i] = paramHash(a)
		}
		t.check(h[0] == h[1], "two %d-step runs from seed %d end on different parameters: %x vs %x", p.HashSteps, rc.Seed, h[0], h[1])
		return nil
	})
	if err != nil {
		return nil, err
	}

	if rc.Trace {
		err := res.phase("trace", func() error {
			// Selection's cost: the fit once more, now warm, against the same
			// steps through plain TrainFrom.
			fitSrc, err := rl.NewTraceSource(model, fit.train, p.FitNet.HistLen, reward, pricing.Hot)
			if err != nil {
				return err
			}
			var wall [2]float64
			for i := range wall {
				a, err := rl.NewA3C(a3cConfig(p.FitNet, p.TrainEnvs, rc.Seed))
				if err != nil {
					return err
				}
				start := time.Now()
				if i == 0 {
					_, _, err = rl.TrainWithSelection(a, model, fit.train, reward, p.FitSteps, p.FitChunks, pricing.Hot)
				} else {
					_, err = a.TrainFrom(fitSrc, p.FitSteps)
				}
				if err != nil {
					return err
				}
				wall[i] = time.Since(start).Seconds()
			}
			res.Layers["rl.selection_overhead_s"] = wall[0] - wall[1]
			trainKernelProbes(res, p.TrainNet, p.TrainEnvs, a3c.Config().NSteps, src)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if res.EndToEnd["setup_s"] <= 0 {
		return nil, fmt.Errorf("train-offline: set-up took no time")
	}
	res.finish(t)
	return res, nil
}
