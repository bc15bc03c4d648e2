package main

import (
	"encoding/json"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/rl"
)

// runIngest is serve-ingest: closed loop, full daily sweeps, no plan until
// the final ?full=1 that the oracle checks.
func runIngest(rc *runCtx) (*result, error) {
	p := rc.Params.Ingest
	res := newResult("serve-ingest", p)
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
			return d, nil
		}, stopDaemon)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// Measured phase: whole sweeps until the clock runs out.
	var lat, rates []float64
	sent := p.FillSweeps
	cpu0, _ := d.cpuSeconds()
	self0 := selfCPUSeconds()
	begin := time.Now()
	var observeWall time.Duration
	for rc.keepMeasuring(begin, rc.Seconds, len(lat)) {
		w := sweep(c, bodies[sent%cycleDays], t, &lat)
		observeWall += w
		rates = append(rates, float64(p.Files)/w.Seconds())
		sent++
	}
	measured := sent - p.FillSweeps
	res.PhaseSeconds["measure"] = time.Since(begin).Seconds()
	if err := daemonUsage(res, d, cpu0, self0, time.Since(begin), float64(measured*p.Files)); err != nil {
		return nil, err
	}
	if err := latencyMetrics(res, lat); err != nil {
		return nil, err
	}
	res.EndToEnd["file_days_per_s"] = median(rates)
	res.Detail["sweeps_measured"] = float64(measured)
	res.Detail["file_days_per_s_overall"] = float64(measured*p.Files) / observeWall.Seconds()

	// Output checks: counters, then the daemon's full plan against a fresh
	// in-process server fed the sweeps that still sit in the 14-day rings.
	err = res.phase("verify", func() error {
		var st agentserver.StatsResponse
		if c.getJSON(t, "/v1/stats", &st) {
			t.check(st.TrackedFiles == p.Files, "stats: tracked_files %d, want %d", st.TrackedFiles, p.Files)
			want := int64(sent) * int64(p.Files)
			t.check(st.Observations == want, "stats: observations %d, want %d", st.Observations, want)
		}
		var got agentserver.PlanResponse
		if !c.getJSON(t, "/v1/plan?full=1", &got) {
			return nil
		}
		checkPlanShape(t, "final plan", &got, p.Files)
		oracle, err := newOracle(agent)
		if err != nil {
			return err
		}
		first := sent - p.Net.HistLen
		if first < 0 {
			first = 0
		}
		buf := make([]agentserver.FileObservation, 0, p.Files)
		for day := first; day < sent; day++ {
			buf = pop.fill(buf, 0, p.Files, day%cycleDays, false)
			if _, err := oracle.Observe(&agentserver.ObserveRequest{Files: buf}); err != nil {
				return err
			}
		}
		want, err := oracle.BuildPlan(true)
		if err != nil {
			return err
		}
		dg, dw := digestPlan(&got), digestPlan(want)
		t.check(dg == dw, "final ?full=1 plan differs from the in-process oracle: %s", firstDiff(&got, want))
		return nil
	})
	if err != nil {
		return nil, err
	}

	if rc.Trace {
		err := res.phase("trace", func() error { return traceIngest(rc, res, agent, bodies) })
		if err != nil {
			return nil, err
		}
	}
	res.finish(t)
	return res, nil
}

// traceIngest replays the first sweeps in-process with a span per layer
// call and fills the write path's per-layer metrics.
func traceIngest(rc *runCtx, res *result, agent *rl.Agent, bodies [][][]byte) error {
	p := rc.Params.Ingest
	const sweeps = 4 // one creating slots, three steady
	var heap float64 // live-heap growth of the last replay: the store holding p.Files files
	rec, traced, err := replayTraced(func(rec *recorder) (*replayer, error) {
		srv, err := newOracle(agent)
		if err != nil {
			return nil, err
		}
		// Taken after the new server exists: the obs registry's gauge closures
		// keep the newest server alive, so building this one released the last.
		before := heapAlloc()
		rp := newReplayer(agent, nil, srv, rec)
		for day := 0; day < sweeps; day++ {
			for _, body := range bodies[day%cycleDays] {
				if err := rp.observe(body); err != nil {
					return nil, err
				}
			}
		}
		heap = heapAlloc() - before
		return rp, nil
	})
	if err != nil {
		return err
	}
	perSweep := int32(len(bodies[0]))
	steady := rec.selfMS(func(req int32) bool { return req >= perSweep })
	fresh := rec.selfMS(func(req int32) bool { return req < perSweep })
	res.Layers["codec.observe_decode_ms"] = medianOf(steady, "codec.observe_decode")
	res.Layers["agentserver.observe_ms"] = medianOf(steady, "agentserver.observe")
	res.Layers["agentserver.observe_new_ms"] = medianOf(fresh, "agentserver.observe")
	res.Layers["agentserver.heap_bytes_per_file"] = heap / float64(p.Files)
	res.Layers["trace.overhead_share"] = overheadShare(rec, traced)
	codecProbe(res, bodies[0][0])
	layerSum := res.Layers["codec.observe_decode_ms"] + res.Layers["agentserver.observe_ms"] + medianOf(steady, "request.observe")
	res.Layers["http.observe_residual_ms"] = res.EndToEnd["latency_p50_ms"] - layerSum
	res.Detail["inprocess_layer_sum_ms"] = layerSum
	return rec.write(rc.Root, res.Workload)
}

// codecProbe times encoding/json on one observe body alone: throughput and
// allocations per body, the figures a codec change would move first.
func codecProbe(res *result, body []byte) {
	const reps = 8
	var req agentserver.ObserveRequest
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < reps; i++ {
		req.Files = req.Files[:0]
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
	}
	el := time.Since(start)
	res.Layers["codec.observe_allocs"] = float64(mallocs()-m0) / reps
	res.Layers["codec.observe_decode_mb_per_s"] = float64(len(body)*reps) / 1e6 / el.Seconds()
}
