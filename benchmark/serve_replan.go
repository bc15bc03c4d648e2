package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/rl"
)

func runReplanSparse(rc *runCtx) (*result, error) {
	return runReplan(rc, "replan-sparse", rc.Params.Sparse)
}

func runReplanDense(rc *runCtx) (*result, error) {
	return runReplan(rc, "replan-dense", rc.Params.Dense)
}

// replanRound is round r's observe body: Touch files starting where the
// previous round stopped, wrapping around the population, on day fill+r.
func replanRound(pop *population, p replanParams, r int, dst []byte) []byte {
	lo := (r * p.Touch) % p.Files
	return pop.appendBody(dst[:0], lo, lo+p.Touch, p.FillSweeps+r, false)
}

// runReplan is the read path: one connection, each round dirties Touch
// rotating files and fetches the incremental plan. Only the plan is timed
// into the latency metrics.
func runReplan(rc *runCtx, name string, p replanParams) (*result, error) {
	if p.Files%p.Touch != 0 {
		return nil, fmt.Errorf("%s: files %d not a multiple of touch %d", name, p.Files, p.Touch)
	}
	res := newResult(name, p)
	t := &tally{}

	var in *servingInputs
	err := res.phase("inputs", func() (err error) {
		in, err = makeServingInputs(rc, p.Net, p.Files, p.Batch)
		return err
	})
	if err != nil {
		return nil, err
	}
	pop, bodies, agent := in.pop, in.bodies, in.agent

	var c *conn
	var d *daemon
	err = res.phase("setup", func() (err error) {
		d, res.EndToEnd["setup_s"], err = repeatSetup(rc.setupReps(), func() (*daemon, error) {
			d, err := startDaemon(rc.DaemonBin, rc.Dir, in.ckpt, rc.Procs)
			if err != nil {
				return nil, err
			}
			c = newConn(d.base)
			for day := 0; day < p.FillSweeps; day++ {
				sweep(c, bodies[day%cycleDays], t, nil)
			}
			for i := 0; i <= p.SettlePlans; i++ { // the first plan is all-dirty: every file is new
				_, err = c.do(http.MethodGet, "/v1/plan", nil)
				t.request("GET /v1/plan (set-up)", err)
			}
			return d, nil
		}, stopDaemon)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// Measured phase: rounds until the clock runs out. Every 10th plan is
	// decoded (outside the timed section) and shape-checked; those among
	// the first VerifyRounds are also digested for the shadow comparison.
	var planMS, rates, scrapeMS, decided []float64
	digests := map[int]planDigest{}
	var body []byte
	cpu0, _ := d.cpuSeconds()
	self0 := selfCPUSeconds()
	begin := time.Now()
	rounds := 0
	for ; rc.keepMeasuring(begin, rc.Seconds, len(planMS)); rounds++ {
		body = replanRound(pop, p, rounds, body)
		od, err := c.do(http.MethodPost, "/v1/observe", body)
		t.request("POST /v1/observe", err)
		pd, perr := c.do(http.MethodGet, "/v1/plan", nil)
		t.request("GET /v1/plan", perr)
		if err != nil || perr != nil {
			continue
		}
		planMS = append(planMS, ms(pd))
		rates = append(rates, float64(p.Files)/(od+pd).Seconds())
		if rounds%10 == 0 {
			var plan agentserver.PlanResponse
			if err := json.Unmarshal(c.buf.Bytes(), &plan); err != nil {
				t.check(false, "round %d: plan does not decode: %v", rounds, err)
				continue
			}
			checkPlanShape(t, fmt.Sprintf("round %d", rounds), &plan, p.Files)
			decided = append(decided, float64(plan.Decided))
			if rounds < p.VerifyRounds {
				digests[rounds] = digestPlan(&plan)
			}
			if rc.Trace {
				sd, err := c.do(http.MethodGet, "/metrics", nil)
				t.request("GET /metrics", err)
				if err == nil {
					scrapeMS = append(scrapeMS, ms(sd))
				}
			}
		}
	}
	wall := time.Since(begin)
	res.PhaseSeconds["measure"] = wall.Seconds()
	if err := daemonUsage(res, d, cpu0, self0, wall, float64(rounds*p.Files)); err != nil {
		return nil, err
	}
	if err := latencyMetrics(res, planMS); err != nil {
		return nil, err
	}
	res.EndToEnd["file_days_per_s"] = median(rates)
	res.Detail["rounds"] = float64(rounds)
	res.Detail["decided_per_plan_p50"] = median(decided)
	res.Layers["obs.scrape_ms"] = median(scrapeMS)

	// Output check: an in-process shadow server fed the same set-up and the
	// same leading rounds must produce the same plans, ID by ID.
	err = res.phase("verify", func() error {
		shadow, err := newOracle(agent)
		if err != nil {
			return err
		}
		buf := make([]agentserver.FileObservation, 0, p.Files)
		for day := 0; day < p.FillSweeps; day++ {
			buf = pop.fill(buf, 0, p.Files, day%cycleDays, false)
			if _, err := shadow.Observe(&agentserver.ObserveRequest{Files: buf}); err != nil {
				return err
			}
		}
		for i := 0; i <= p.SettlePlans; i++ {
			if _, err := shadow.BuildPlan(false); err != nil {
				return err
			}
		}
		last := p.VerifyRounds
		if last > rounds {
			last = rounds
		}
		for r := 0; r < last; r++ {
			lo := (r * p.Touch) % p.Files
			buf = pop.fill(buf, lo, lo+p.Touch, p.FillSweeps+r, false)
			if _, err := shadow.Observe(&agentserver.ObserveRequest{Files: buf}); err != nil {
				return err
			}
			want, err := shadow.BuildPlan(false)
			if err != nil {
				return err
			}
			if got, ok := digests[r]; ok {
				dw := digestPlan(want)
				t.check(got == dw, "round %d: daemon plan %+v differs from shadow %+v", r, got, dw)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if rc.Trace {
		err := res.phase("trace", func() error { return traceReplan(rc, res, p, agent, pop, bodies) })
		if err != nil {
			return nil, err
		}
	}
	res.finish(t)
	return res, nil
}

// traceReplan replays set-up and the first rounds in-process with a span
// per layer call and fills the read path's per-layer metrics.
func traceReplan(rc *runCtx, res *result, p replanParams, agent *rl.Agent, pop *population, bodies [][][]byte) error {
	const rounds = 25
	var decided, transitions float64
	rec, traced, err := replayTraced(func(rec *recorder) (*replayer, error) {
		srv, err := newOracle(agent)
		if err != nil {
			return nil, err
		}
		rp := newReplayer(agent, nil, srv, rec)
		for day := 0; day < p.FillSweeps; day++ {
			for _, body := range bodies[day%cycleDays] {
				if err := rp.observe(body); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i <= p.SettlePlans; i++ {
			if _, err := rp.plan(); err != nil {
				return nil, err
			}
		}
		rp.busy = 0
		decided, transitions = 0, 0
		var body []byte
		for r := 0; r < rounds; r++ {
			body = replanRound(pop, p, r, body)
			if err := rp.observe(body); err != nil {
				return nil, err
			}
			plan, err := rp.plan()
			if err != nil {
				return nil, err
			}
			decided += float64(plan.Decided)
			transitions += float64(plan.Transition)
		}
		return rp, nil
	})
	if err != nil {
		return err
	}
	setupReqs := int32(p.FillSweeps*len(bodies[0]) + 1 + p.SettlePlans)
	self := rec.selfMS(func(req int32) bool { return req >= setupReqs })
	res.Layers["codec.observe_decode_ms"] = medianOf(self, "codec.observe_decode")
	res.Layers["agentserver.observe_ms"] = medianOf(self, "agentserver.observe")
	res.Layers["codec.plan_encode_ms"] = medianOf(self, "codec.plan_encode")
	res.Layers["codec.plan_bytes"] = float64(traced.planBytes)
	// The shadow decide is timed after the replay; on a noisy box it can read
	// longer than the plan it shadows, which would make the store negative.
	store, decide := math.Max(0, medianOf(self, "agentserver.plan")), medianOf(self, "rl.decide")
	res.Layers["agentserver.plan_store_ms"] = store
	res.Layers["agentserver.plan_ms"] = store + decide
	res.Layers["agentserver.plan_decided"] = decided / rounds
	res.Layers["agentserver.plan_transitions"] = transitions / rounds
	if decided > 0 {
		res.Layers["agentserver.plan_useful_ratio"] = transitions / decided
	}
	res.Layers["trace.overhead_share"] = overheadShare(rec, traced)
	layerSum := store + decide + res.Layers["codec.plan_encode_ms"] + medianOf(self, "request.plan")
	res.Layers["http.plan_residual_ms"] = res.EndToEnd["latency_p50_ms"] - layerSum
	res.Detail["inprocess_layer_sum_ms"] = layerSum
	kernelProbes(res, p.Net)
	return rec.write(rc.Root, res.Workload)
}
