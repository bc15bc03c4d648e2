package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
)

// tally counts what the run attempted — HTTP requests and output checks —
// and what failed. A failed request contributes no latency sample.
type tally struct {
	attempted int
	failed    int
	errs      []string // first few failures, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// request records one HTTP exchange.
func (t *tally) request(what string, err error) {
	t.attempted++
	if err != nil {
		t.fail("%s: %v", what, err)
	}
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

// conn is the closed-loop client: one keep-alive connection — the transport
// allows no second, so the daemon never sees two requests at once — and a
// reusable response buffer.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer // body of the last response
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// do issues one request and reads the whole response into c.buf. The
// returned latency runs from send to last response byte read; non-2xx
// answers are errors.
func (c *conn) do(method, path string, body []byte) (time.Duration, error) {
	var rd io.Reader // stays a nil interface for bodiless requests
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, c.buf.Bytes())
	}
	return lat, nil
}

// getJSON fetches path and decodes the answer into v, counting the request.
func (c *conn) getJSON(t *tally, path string, v any) bool {
	_, err := c.do(http.MethodGet, path, nil)
	if err == nil {
		err = json.Unmarshal(c.buf.Bytes(), v)
	}
	t.request("GET "+path, err)
	return err == nil
}

// sweep posts one day's bodies one after the other, appends each successful
// request's latency (ms) to *lat when lat is non-nil, and returns the
// sweep's wall time.
func sweep(c *conn, bodies [][]byte, t *tally, lat *[]float64) time.Duration {
	start := time.Now()
	for _, body := range bodies {
		d, err := c.do(http.MethodPost, "/v1/observe", body)
		t.request("POST /v1/observe", err)
		if err == nil && lat != nil {
			*lat = append(*lat, ms(d))
		}
	}
	return time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writeAgentCheckpoint saves the serving checkpoint under dir — what the
// daemon boots from — and returns the agent read back from that same file,
// so the in-process oracle decides with exactly the daemon's weights.
//
// The weights are freshly initialised from the seed (latency does not
// depend on them) with one change: the hidden layer's weights on the
// current-tier one-hot inputs are zeroed. A random policy that can see a
// file's tier flips thousands of files back and forth plan after plan, and
// every flip re-queues its file, so the rows an incremental plan decides
// would depend on the seed's weights rather than on the files touched. A
// tier-blind policy decides from each file's observed history and size
// alone: a touched file is re-decided, at most once more if its tier
// changed, and then rests.
func writeAgentCheckpoint(dir string, net rl.NetConfig, seed uint64) (*rl.Agent, string, error) {
	actor := net.BuildActor(rng.New(seed))
	k, hidden := denseShape(net)
	blinded := false
	for _, prm := range actor.Params() {
		if len(prm.Value) != hidden*k { // the hidden layer's hidden×k weight matrix, row-major
			continue
		}
		for o := 0; o < hidden; o++ {
			for t := 0; t < pricing.NumTiers; t++ {
				prm.Value[o*k+k-1-t] = 0 // the one-hot is the feature vector's tail
			}
		}
		blinded = true
	}
	if !blinded {
		return nil, "", fmt.Errorf("checkpoint: no %d×%d hidden-layer weight matrix in the actor", hidden, k)
	}
	path := filepath.Join(dir, "agent.ckpt")
	f, err := os.Create(path)
	if err != nil {
		return nil, "", err
	}
	if err := rl.NewAgent(net, actor).Save(f); err != nil {
		f.Close()
		return nil, "", fmt.Errorf("save checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, "", err
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	agent, err := rl.LoadAgent(f)
	if err != nil {
		return nil, "", fmt.Errorf("reload checkpoint: %w", err)
	}
	// Self-check: the decision must not move with the tier input.
	r := rng.New(seed ^ 0xb11d)
	st := mdp.State{ReadHistory: make([]float64, net.HistLen), WriteHistory: make([]float64, net.HistLen)}
	for trial := 0; trial < 64; trial++ {
		for d := range st.ReadHistory {
			st.ReadHistory[d], st.WriteHistory[d] = r.Float64()*2000, r.Float64()*20
		}
		st.SizeGB = 0.01 + r.Float64()*50
		st.Tier = pricing.Hot
		want := agent.Decide(&st)
		for _, tier := range pricing.AllTiers() {
			st.Tier = tier
			if got := agent.Decide(&st); got != want {
				return nil, "", fmt.Errorf("checkpoint: policy still sees the tier input (%v from %v, %v from hot): nn parameter layout changed?", got, tier, want)
			}
		}
	}
	return agent, path, nil
}

// planDigest reduces a plan to what the oracle comparison needs: the exact
// counts and an FNV-1a hash over every (id, tier, changed) in order.
type planDigest struct {
	Files       int
	Decided     int
	Transitions int
	Hash        uint64
}

func digestPlan(p *agentserver.PlanResponse) planDigest {
	h := fnv.New64a()
	for i := range p.Files {
		e := &p.Files[i]
		h.Write([]byte(e.ID))
		h.Write([]byte{0})
		h.Write([]byte(e.Tier))
		if e.Changed {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return planDigest{Files: len(p.Files), Decided: p.Decided, Transitions: p.Transition, Hash: h.Sum64()}
}

// checkPlanShape verifies what must hold for any plan over n tracked files:
// n entries, strictly ascending IDs, valid tier names.
func checkPlanShape(t *tally, what string, p *agentserver.PlanResponse, n int) {
	ok := len(p.Files) == n
	for i := 0; ok && i < len(p.Files); i++ {
		if _, err := pricing.ParseTier(p.Files[i].Tier); err != nil {
			ok = false
		}
		if i > 0 && p.Files[i-1].ID >= p.Files[i].ID {
			ok = false
		}
	}
	t.check(ok, "%s: plan is not %d ID-sorted entries with valid tiers (got %d)", what, n, len(p.Files))
}

// firstDiff names the first entry where two plans disagree, for reports.
func firstDiff(got, want *agentserver.PlanResponse) string {
	if len(got.Files) != len(want.Files) {
		return fmt.Sprintf("%d entries, oracle has %d", len(got.Files), len(want.Files))
	}
	for i := range got.Files {
		if got.Files[i] != want.Files[i] {
			return fmt.Sprintf("entry %d: daemon %+v, oracle %+v", i, got.Files[i], want.Files[i])
		}
	}
	return fmt.Sprintf("counts: daemon decided=%d transitions=%d, oracle decided=%d transitions=%d",
		got.Decided, got.Transition, want.Decided, want.Transition)
}

// newOracle builds the in-process server the daemon's outputs are checked
// against: same agent, same initial tier, default configuration.
func newOracle(agent *rl.Agent) (*agentserver.Server, error) {
	return agentserver.New(agent, pricing.Hot)
}

// stopDaemon is repeatSetup's teardown for serving workloads.
func stopDaemon(d *daemon) { _ = d.stop() }

// daemonUsage fills peak_rss_mb and, from CPU readings taken around the
// measured phase, the two sanity ratios: what the daemon burned per million
// file-days and how busy the generator was.
func daemonUsage(r *result, d *daemon, cpu0, self0 float64, wall time.Duration, fileDays float64) error {
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	r.EndToEnd["peak_rss_mb"] = rss
	r.Layers["daemon.cpu_s_per_mfd"] = (cpu1 - cpu0) / (fileDays / 1e6)
	r.Layers["loadgen.busy_share"] = (selfCPUSeconds() - self0) / wall.Seconds()
	r.Detail["daemon_cpu_s"] = cpu1 - cpu0
	return nil
}

// servingInputs is what serve-ingest and the replan workloads derive from
// the seed before any daemon starts: the population, one pre-encoded sweep
// per cycle day, and the checkpoint with the agent read back from it.
type servingInputs struct {
	pop    *population
	bodies [][][]byte
	agent  *rl.Agent
	ckpt   string
}

func makeServingInputs(rc *runCtx, net rl.NetConfig, files, batch int) (*servingInputs, error) {
	in := &servingInputs{pop: newPopulation(rc.Seed, files)}
	in.bodies = in.pop.sweepBodies(batch, false)
	var err error
	in.agent, in.ckpt, err = writeAgentCheckpoint(rc.Dir, net, rc.Seed)
	return in, err
}
