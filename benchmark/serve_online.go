package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/online"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

// onlineBody is the observe body of the given absolute day (set-up days
// included): the whole population, drifted from measured day DriftDay on.
func onlineBody(p onlineParams, normal, drifted [][][]byte, day int) []byte {
	if day-p.FillDays >= p.DriftDay {
		return drifted[day%cycleDays][0]
	}
	return normal[day%cycleDays][0]
}

// finetuneConfig is the trainer configuration cmd/minicostd builds from
// the flags the workload passes (its finetuneA3C: paper defaults, seed 0),
// so the in-process learner of the traced replay trains what the daemon
// trains.
func finetuneConfig(p onlineParams) rl.A3CConfig { return a3cConfig(p.Net, p.FinetuneEnvs, 0) }

// runOnline is serve-online: minicostd -online, one connection, each day
// posts the population in one batch and fetches the plan, while cadence
// fine-tune epochs and the holdout gate share the daemon's two cores.
func runOnline(rc *runCtx) (*result, error) {
	p := rc.Params.Online
	res := newResult("serve-online", p)
	t := &tally{}

	var normal, drifted [][][]byte
	var agent *rl.Agent
	var ckpt string
	err := res.phase("inputs", func() (err error) {
		pop := newPopulation(rc.Seed, p.Files)
		normal = pop.sweepBodies(p.Files, false)
		drifted = pop.sweepBodies(p.Files, true)
		agent, ckpt, err = writeAgentCheckpoint(rc.Dir, p.Net, rc.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	var c *conn
	var d *daemon
	var ckptDir string
	setups := 0
	err = res.phase("setup", func() (err error) {
		d, res.EndToEnd["setup_s"], err = repeatSetup(rc.setupReps(), func() (*daemon, error) {
			setups++
			ckptDir = filepath.Join(rc.Dir, fmt.Sprintf("learner-%d", setups))
			if err := os.Mkdir(ckptDir, 0o755); err != nil {
				return nil, err
			}
			d, err := startDaemon(rc.DaemonBin, rc.Dir, ckpt, rc.Procs,
				"-online",
				"-finetune-every", strconv.Itoa(p.FinetuneEvery),
				"-finetune-steps", strconv.Itoa(p.FinetuneSteps),
				"-finetune-workers", "1",
				"-finetune-envs", strconv.Itoa(p.FinetuneEnvs),
				"-drift-threshold", "0",
				"-checkpoint-dir", ckptDir)
			if err != nil {
				return nil, err
			}
			c = newConn(d.base)
			for day := 0; day < p.FillDays; day++ {
				_, err := c.do(http.MethodPost, "/v1/observe", onlineBody(p, normal, drifted, day))
				t.request("POST /v1/observe (fill)", err)
			}
			_, err = c.do(http.MethodGet, "/v1/plan", nil)
			t.request("GET /v1/plan (first)", err)
			return d, nil
		}, stopDaemon)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// Measured phase: days until the clock runs out. Every plan is decoded
	// outside the timed section and shape-checked.
	var planMS, observeMS, rates []float64
	epochBusy := func() float64 {
		_, err := c.do(http.MethodGet, "/metrics", nil)
		t.request("GET /metrics", err)
		return promValue(c.buf.Bytes(), online.MetricEpochLatency+"_sum")
	}
	busy0 := epochBusy()
	cpu0, _ := d.cpuSeconds()
	self0 := selfCPUSeconds()
	begin := time.Now()
	days := 0
	for ; rc.keepMeasuring(begin, rc.Seconds, len(planMS)); days++ {
		od, err := c.do(http.MethodPost, "/v1/observe", onlineBody(p, normal, drifted, p.FillDays+days))
		t.request("POST /v1/observe", err)
		if err == nil {
			observeMS = append(observeMS, ms(od))
			rates = append(rates, float64(p.Files)/od.Seconds())
		}
		pd, err := c.do(http.MethodGet, "/v1/plan", nil)
		t.request("GET /v1/plan", err)
		if err != nil {
			continue
		}
		planMS = append(planMS, ms(pd))
		var plan agentserver.PlanResponse
		if err := json.Unmarshal(c.buf.Bytes(), &plan); err != nil {
			t.check(false, "day %d: plan does not decode: %v", days, err)
			continue
		}
		checkPlanShape(t, fmt.Sprintf("day %d", days), &plan, p.Files)
	}
	wall := time.Since(begin)
	res.PhaseSeconds["measure"] = wall.Seconds()
	if err := daemonUsage(res, d, cpu0, self0, wall, float64(days*p.Files)); err != nil {
		return nil, err
	}
	res.Layers["online.epoch_busy_share"] = (epochBusy() - busy0) / wall.Seconds()
	if err := latencyMetrics(res, planMS); err != nil {
		return nil, err
	}
	res.EndToEnd["file_days_per_s"] = median(rates)
	res.Detail["days"] = float64(days)
	res.Detail["observe_p50_ms"] = median(observeMS)

	// Output checks: the learner ran, reported no error, and every accepted
	// candidate left a checkpoint behind.
	err = res.phase("verify", func() error {
		var st online.Status
		if !c.getJSON(t, "/v1/learner", &st) {
			return nil
		}
		// One cadence trigger per FinetuneEvery days; the last may still be
		// running. A short run owes fewer epochs than MinEpochs, never none.
		want := int64(days/p.FinetuneEvery - 1)
		if want > int64(p.MinEpochs) {
			want = int64(p.MinEpochs)
		}
		if want < 1 {
			want = 1
		}
		t.check(st.Epochs >= want, "learner finished %d epochs over %d days, want at least %d", st.Epochs, days, want)
		t.check(st.LastError == "", "learner last_error: %s", st.LastError)
		latest, err := online.LatestCheckpoint(ckptDir)
		t.check((st.Swaps > 0) == (err == nil && latest != ""),
			"learner reports %d swaps but checkpoint lookup gave %q (%v)", st.Swaps, latest, err)
		res.Layers["online.epochs"] = float64(st.Epochs)
		res.Layers["online.swaps"] = float64(st.Swaps)
		res.Layers["online.swaps_rejected"] = float64(st.SwapsRejected)
		return nil
	})
	if err != nil {
		return nil, err
	}

	if rc.Trace {
		err := res.phase("trace", func() error { return traceOnline(rc, res, agent, normal, drifted) })
		if err != nil {
			return nil, err
		}
	}
	res.finish(t)
	return res, nil
}

// promValue returns the value of the first sample of the named series in a
// Prometheus text exposition, or 0.
func promValue(text []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if i := strings.IndexByte(rest, '}'); strings.HasPrefix(rest, "{") && i >= 0 {
			rest = rest[i+1:]
		}
		if !strings.HasPrefix(rest, " ") {
			continue // a longer name sharing the prefix
		}
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err == nil {
			return v
		}
	}
	return 0
}

// traceOnline replays set-up and the first days in-process — server with a
// nil tap, the learner tapped by the harness in production order — then
// times fine-tune epochs directly.
func traceOnline(rc *runCtx, res *result, agent *rl.Agent, normal, drifted [][][]byte) error {
	p := rc.Params.Online
	const days = 30
	model := costmodel.New(pricing.Azure())
	var learnerHeap float64
	var learner *online.Learner // the last replay's, filled and ready to train
	rec, traced, err := replayTraced(func(rec *recorder) (*replayer, error) {
		srv, err := newOracle(agent)
		if err != nil {
			return nil, err
		}
		trainer, err := rl.NewA3C(finetuneConfig(p))
		if err != nil {
			return nil, err
		}
		_, critic := trainer.ParamVectors()
		if err := trainer.SetParamVectors(agent.ParamVector(), critic); err != nil {
			return nil, err
		}
		learner = nil // release the previous replay's buffer before the baseline reading
		before := heapAlloc()
		learner, err = online.New(online.Config{
			Trainer: trainer, Serving: srv, Model: model,
			Reward: mdp.DefaultReward(), Initial: pricing.Hot,
			FinetuneSteps: int64(p.FinetuneSteps), SwapGate: true,
		})
		if err != nil {
			return nil, err
		}
		rp := newReplayer(agent, learner, srv, rec)
		for day := 0; day < p.FillDays+days; day++ {
			if err := rp.observe(onlineBody(p, normal, drifted, day)); err != nil {
				return nil, err
			}
			if day >= p.FillDays-1 {
				if _, err := rp.plan(); err != nil {
					return nil, err
				}
			}
		}
		// The serving store's share of the delta is measured by serve-ingest;
		// here the server was built before `before`, so what remains is the
		// learner's buffer plus the store's rings for the same files.
		learnerHeap = heapAlloc() - before
		return rp, nil
	})
	if err != nil {
		return err
	}
	setupReqs := int32(p.FillDays + 1)
	self := rec.selfMS(func(req int32) bool { return req >= setupReqs })
	res.Layers["codec.observe_decode_ms"] = medianOf(self, "codec.observe_decode")
	res.Layers["agentserver.observe_ms"] = medianOf(self, "agentserver.observe")
	res.Layers["online.tap_us_per_batch"] = medianOf(self, "online.tap") * 1e3
	res.Layers["codec.plan_encode_ms"] = medianOf(self, "codec.plan_encode")
	res.Layers["codec.plan_bytes"] = float64(traced.planBytes)
	// The shadow decide is timed after the replay; on a noisy box it can read
	// longer than the plan it shadows, which would make the store negative.
	store, decide := math.Max(0, medianOf(self, "agentserver.plan")), medianOf(self, "rl.decide")
	res.Layers["agentserver.plan_store_ms"] = store
	res.Layers["agentserver.plan_ms"] = store + decide
	res.Layers["online.heap_bytes_per_file"] = learnerHeap / float64(p.Files)
	res.Layers["trace.overhead_share"] = overheadShare(rec, traced)
	planSum := store + decide + res.Layers["codec.plan_encode_ms"] + medianOf(self, "request.plan")
	res.Layers["http.plan_residual_ms"] = res.EndToEnd["latency_p50_ms"] - planSum
	observeSum := res.Layers["codec.observe_decode_ms"] + res.Layers["agentserver.observe_ms"] +
		medianOf(self, "online.tap") + medianOf(self, "request.observe")
	res.Layers["http.observe_residual_ms"] = res.Detail["observe_p50_ms"] - observeSum

	// Epochs, timed directly on the in-process learner the replay filled.
	var epochS []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := learner.RunEpoch(); err != nil {
			return fmt.Errorf("traced RunEpoch: %w", err)
		}
		epochS = append(epochS, time.Since(start).Seconds())
	}
	res.Layers["online.epoch_s"] = median(epochS)

	// The fine-tune engine alone: FinetuneSteps on a generated trace.
	gen := trace.DefaultGenConfig()
	gen.NumFiles, gen.Days, gen.Seed, gen.Workers = 200, 28, rc.Seed, 1
	tr, err := trace.Generate(gen)
	if err != nil {
		return err
	}
	src, err := rl.NewTraceSource(model, tr, p.Net.HistLen, mdp.DefaultReward(), pricing.Hot)
	if err != nil {
		return err
	}
	trainer, err := rl.NewA3C(finetuneConfig(p))
	if err != nil {
		return err
	}
	var rate []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := trainer.FineTune(src, int64(p.FinetuneSteps)); err != nil {
			return err
		}
		rate = append(rate, float64(p.FinetuneSteps)/time.Since(start).Seconds())
	}
	res.Layers["rl.finetune_steps_per_s"] = median(rate)
	kernelProbes(res, p.Net)
	return rec.write(rc.Root, res.Workload)
}
