// Command benchmark is MiniCost's one end-to-end benchmark: it builds
// ./cmd/minicostd from the working tree, boots it on a loopback port from a
// checkpoint it writes, drives it over real HTTP in a closed loop, checks
// every output against an in-process oracle, and prints every metric by
// name with its unit. A fifth workload trains, fits and prices a policy
// in-process. README.md in this directory explains each workload and
// metric; BENCHMARK.json at the repository root is the machine-readable
// contract.
//
// Usage (from the repository root):
//
//	go run ./benchmark                              # all workloads, seed 11
//	go run ./benchmark --workload serve-ingest      # one workload
//	go run ./benchmark --workload replan-dense --trace 1   # per-layer budget
//	go run ./benchmark --seed 23                    # a second seed
//	go run ./benchmark -repeat-check                # two sets, compared within bounds
//	go run ./benchmark -smoke                       # tiny sizes, all checks on
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one named set of inputs and the function that runs it.
type workload struct {
	Name string
	Why  string
	Run  func(*runCtx) (*result, error)
}

// workloads lists every workload in the order `--workload all` runs them.
// The Why lines are BENCHMARK.json's (TestSpecMatchesBenchmarkJSON).
var workloads = []workload{
	{"serve-ingest", "Write path: full daily sweeps in 8192-file POSTs, closed loop; codec decode, HTTP and ring ingest do all the work and rl/nn/mat none, so an inference or training gain must not move it.", runIngest},
	{"replan-sparse", "Read path, O(N) side: 64 rotating files dirtied per incremental plan over 65536 tracked; entry build, merge, JSON encode and transfer dominate and the GEMM is noise.", runReplanSparse},
	{"replan-dense", "Read path, compute side: all 1024 files re-observed per round, so each plan decides 1024 rows at the paper's 128/128 network; rl.DecideBatch, nn and mat dominate: a GEMM gain moves it, not sparse.", runReplanDense},
	{"serve-online", "minicostd -online: the same observe and plan layers while fine-tune epochs and the holdout gate compete for the two cores and every batch also passes the learner's tap.", runOnline},
	{"train-offline", "In-process: fit with snapshot selection, A3C training at the paper's network, pricing against Hot, Cold, Greedy and Optimal; uses mdp, nn backward, policy, costmodel and no HTTP, codec or store.", runTrainOffline},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runCtx is what every workload receives.
type runCtx struct {
	Ctx       context.Context // cancelled by SIGINT/SIGTERM: measured loops end at the next round
	Seed      uint64
	Seconds   float64
	Trace     bool
	Params    params
	Procs     int    // cores the daemon and the harness each may use
	Root      string // module root
	DaemonBin string
	Dir       string // this run's scratch directory, removed at exit
}

// minSamples is the fewest latency samples a run may end on: the p90 needs
// its ten beyond (quantile.go), with some to spare for failed requests.
const minSamples = 110

// keepMeasuring reports whether a measured loop should run another round:
// until its seconds are up, and beyond them only while the tail percentile
// still lacks samples — a slow box runs longer (at most three times as long)
// rather than failing.
func (rc *runCtx) keepMeasuring(begin time.Time, seconds float64, samples int) bool {
	if rc.Ctx.Err() != nil {
		return false
	}
	elapsed := time.Since(begin).Seconds()
	return elapsed < seconds || (samples < minSamples && elapsed < 3*seconds)
}

// setupReps is how many times the workload sets up; the traced run reports
// no setup_s, so it sets up once.
func (rc *runCtx) setupReps() int {
	if rc.Trace {
		return 1
	}
	return rc.Params.SetupReps
}

// result is one workload run.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	// Detail holds ungated figures printed alongside: sample counts, p99s,
	// counts read back from the daemon.
	Detail map[string]float64 `json:"detail"`
	// PhaseSeconds is the wall time of each phase of the run.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	Params       any                `json:"params"` // the workload's sizing
	Stamp        *stamp             `json:"stamp"`
}

func newResult(name string, sizing any) *result {
	return &result{
		Workload: name, Params: sizing,
		EndToEnd: map[string]float64{}, Layers: map[string]float64{},
		Detail: map[string]float64{}, PhaseSeconds: map[string]float64{},
	}
}

// finish folds the tally into the result.
func (r *result) finish(t *tally) {
	r.Attempted, r.Failed, r.Errors = t.attempted, t.failed, t.errs
	r.Correct = t.failed == 0
}

// phase times fn and records it under name.
func (r *result) phase(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	r.PhaseSeconds[name] += time.Since(start).Seconds()
	return err
}

// repeatSetup sets up reps times, tearing down every instance but the last,
// and returns the last instance with the median set-up time in seconds.
func repeatSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		inst, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(inst)
		}
		last = inst
	}
	return last, median(times), nil
}

// latencyMetrics fills the latency metric and its ungated tail companions
// from one slice of per-request latencies in ms. A tail percentile the
// sample cannot support (quantile.go) is left out rather than reported.
func latencyMetrics(r *result, samples []float64) error {
	p50, err := quantile(samples, 50)
	if err != nil {
		return err
	}
	r.EndToEnd["latency_p50_ms"] = p50
	r.Detail["latency_samples"] = float64(len(samples))
	if p90, err := quantile(samples, 90); err == nil {
		r.Layers["live.latency_p90_ms"] = p90
		r.Detail["latency_p90_ms"] = p90
	}
	if p99, err := quantile(samples, 99); err == nil {
		r.Detail["latency_p99_ms"] = p99
	}
	return nil
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last-line object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable report and then the result line.
func (r *result) print(trace bool) error {
	fmt.Printf("== %s  correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("   FAILED %s\n", e)
	}
	specs, values := endToEnd, r.EndToEnd
	if trace {
		specs, values = perLayer, r.Layers
	}
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v := values[s.Name]
		fmt.Printf("   %-38s %16.6g %s\n", s.Name, v, s.Unit)
		line.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for _, k := range sortedKeys(r.Detail) {
		fmt.Printf("   . %-36s %16.6g\n", k, r.Detail[k])
	}
	for _, k := range sortedKeys(r.PhaseSeconds) {
		fmt.Printf("   . phase %-30s %16.3f s\n", k, r.PhaseSeconds[k])
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// outDir creates and returns benchmark/out, where results and span files go.
func outDir(root string) (string, error) {
	dir := filepath.Join(root, "benchmark", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// save writes the stamped result under benchmark/out.
func (r *result) save(root string, trace bool) error {
	dir, err := outDir(root)
	if err != nil {
		return err
	}
	name := "result-" + r.Workload + ".json"
	if trace {
		name = "result-" + r.Workload + "-traced.json"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// options are the command-line settings.
type options struct {
	Workload    string
	Seed        uint64
	Seconds     float64
	Trace       int
	Smoke       bool
	RepeatCheck bool
}

func main() {
	var o options
	flag.StringVar(&o.Workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.Seed, "seed", 11, "input seed")
	flag.Float64Var(&o.Seconds, "seconds", 0, "measured seconds per workload (0 = BENCHMARK.json's run_seconds, or 1 with -smoke)")
	flag.IntVar(&o.Trace, "trace", 0, "1 prints the per-layer metrics from a traced in-process replay instead of the end-to-end ones")
	flag.BoolVar(&o.Smoke, "smoke", false, "tiny sizes: every path and check, no meaningful numbers")
	flag.BoolVar(&o.RepeatCheck, "repeat-check", false, "run every workload twice and fail if any end-to-end metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := 0
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	stop()
	os.Exit(code)
}

// errIncorrect reports that a run printed its result but failed a check.
var errIncorrect = errors.New("a workload failed its output checks")

func run(ctx context.Context, o options) error {
	if o.Trace != 0 && o.Trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.Trace)
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	spec, err := loadBenchmarkJSON(root)
	if err != nil {
		return err
	}
	if o.Seconds == 0 {
		o.Seconds = float64(spec.RunSeconds)
		if o.Smoke {
			o.Seconds = 1
		}
	}
	if o.Seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", o.Seconds)
	}
	// The daemon and the generator each need a core of their own: on one
	// core every serving number would measure the scheduler.
	procs := runtime.NumCPU()
	if procs < 2 {
		return fmt.Errorf("need at least 2 CPUs (daemon + generator), have %d", procs)
	}
	runtime.GOMAXPROCS(procs)

	var selected []workload
	if o.Workload == "all" {
		selected = workloads
	} else if w := findWorkload(o.Workload); w != nil {
		selected = []workload{*w}
	} else {
		return fmt.Errorf("unknown workload %q", o.Workload)
	}

	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(ctx, root)
	if err != nil {
		return err
	}
	prm := fullParams()
	if o.Smoke {
		prm = smokeParams()
	}
	runOne := func(w workload) (*result, error) {
		dir, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		rc := &runCtx{
			Ctx: ctx, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace == 1, Params: prm,
			Procs: procs, Root: root, DaemonBin: bin, Dir: dir,
		}
		start := time.Now()
		res, err := w.Run(rc)
		if err == nil {
			err = ctx.Err() // an interrupted run reports nothing; its daemon is already stopped
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.PhaseSeconds["total"] = time.Since(start).Seconds()
		res.Stamp = newStamp(root, rc)
		if err := res.save(root, rc.Trace); err != nil {
			return nil, err
		}
		return res, nil
	}

	if o.RepeatCheck {
		return repeatCheck(ctx, selected, spec, runOne)
	}
	incorrect := false
	for _, w := range selected {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		res, err := runOne(w)
		if err != nil {
			return err
		}
		if err := res.print(o.Trace == 1); err != nil {
			return err
		}
		incorrect = incorrect || !res.Correct
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}
