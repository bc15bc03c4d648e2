// Command minicost runs the full MiniCost pipeline on a workload: load (or
// generate) a trace, train the RL agent on the first portion, serve the
// remainder, and report its bill next to the paper's baselines, all priced
// by the same cost model. With -aggregate the row is labelled minicost-w/E
// (Fig. 13's label): only MiniCost runs the enhancement. With -save the
// trained agent is written as the checkpoint minicostd -checkpoint serves;
// -split 1 then trains it on every day and skips the held-out report.
//
// Usage:
//
//	minicost -files 500 -days 42 -train-steps 200000
//	minicost -trace trace.csv -split 0.8 -aggregate
//	minicost -trace hist.csv -split 1 -save agent.ckpt
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"minicost"
	"minicost/internal/online"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "trace CSV (default: generate synthetically)")
		files      = flag.Int("files", 500, "files when generating")
		days       = flag.Int("days", 42, "days when generating")
		seed       = flag.Uint64("seed", 1, "seed")
		steps      = flag.Int64("train-steps", 200000, "A3C training steps")
		split      = flag.Float64("split", 0.5, "fraction of days used for training history (1, with -save: every day, no report)")
		aggregateE = flag.Bool("aggregate", false, "enable the concurrent-request aggregation enhancement")
		filters    = flag.Int("filters", 32, "conv filters (paper: 128)")
		hidden     = flag.Int("hidden", 64, "hidden neurons (paper: 128)")
		savePath   = flag.String("save", "", "write the trained agent's checkpoint here, atomically, for minicostd -checkpoint")
	)
	flag.Parse()

	tr, err := loadTrace(*tracePath, *files, *days, *seed)
	if err != nil {
		fatal(err)
	}
	hist, serve, err := splitTrace(tr, *split, *savePath != "")
	if err != nil {
		fatal(err)
	}

	cfg := minicost.DefaultConfig()
	cfg.TrainSteps = *steps
	cfg.A3C.Net.Filters = *filters
	cfg.A3C.Net.Hidden = *hidden
	cfg.A3C.Seed = *seed
	if *aggregateE {
		agg := minicost.DefaultAggregationConfig()
		cfg.Aggregation = &agg
	}
	sys, err := minicost.New(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "training on %d files x %d days (%d steps)...\n", hist.NumFiles(), hist.Days, *steps)
	start := time.Now()
	stats, err := sys.Train(hist)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "trained: %d steps, %d episodes, mean reward %.3f (%s)\n",
		stats.Steps, stats.Episodes, stats.MeanReward(), time.Since(start).Round(time.Millisecond))
	if *savePath != "" {
		if err := saveAgent(*savePath, sys); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "agent checkpoint written to %s\n", *savePath)
	}
	if serve == nil {
		fmt.Fprintln(os.Stderr, "-split 1: trained on every day; no held-out days to report")
		return
	}

	report, err := sys.Run(serve)
	if err != nil {
		fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "method\ttotal $\tstorage\tread\twrite\ttransition\n")
	row := func(name string, bd minicost.Breakdown) {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\n", name, bd.Total(), bd.Storage, bd.Read, bd.Write, bd.Transition)
	}
	board, err := minicost.Score(serve, minicost.AzurePricing(), minicost.Baselines()...)
	if err != nil {
		fatal(err)
	}
	for _, r := range board {
		row(r.Name, r.Total)
	}
	name := "minicost"
	if *aggregateE {
		name = "minicost-w/E"
	}
	row(name, report.Total)
	w.Flush()
	fmt.Printf("tier changes: %d, decision time: %s total (%.3f ms/file/day)\n",
		report.TierChanges, report.DecisionTime.Round(time.Millisecond),
		report.DecisionTime.Seconds()*1000/float64(serve.NumFiles()*serve.Days))
	if *aggregateE {
		fmt.Printf("aggregated groups active at end: %d\n", report.AggregatedGroups)
	}
}

// splitTrace cuts tr at the first frac of its days into the training
// history and the held-out days the report prices. frac 1 trains on every
// day and holds none out (serve is nil): a run that saves its agent for
// minicostd may ask for that, since the deployed agent should have seen the
// newest history; a run without -save needs days to report on.
func splitTrace(tr *minicost.Trace, frac float64, save bool) (hist, serve *minicost.Trace, err error) {
	if frac == 1 && save {
		if tr.Days < 8 {
			return nil, nil, fmt.Errorf("split 1 leaves too little data (train %d days)", tr.Days)
		}
		return tr, nil, nil
	}
	cut := int(float64(tr.Days) * frac)
	if cut < 8 || tr.Days-cut < 7 {
		return nil, nil, fmt.Errorf("split %.2f leaves too little data (train %d days, serve %d)", frac, cut, tr.Days-cut)
	}
	if hist, err = tr.Window(0, cut); err != nil {
		return nil, nil, err
	}
	serve, err = tr.Window(cut, tr.Days)
	return hist, serve, err
}

// saveAgent writes the system's trained agent to path through
// online.WriteAtomic (temporary file, fsync, rename).
func saveAgent(path string, sys *minicost.System) error {
	return online.WriteAtomic(path, sys.Agent().Save)
}

func loadTrace(path string, files, days int, seed uint64) (*minicost.Trace, error) {
	if path == "" {
		cfg := minicost.DefaultTraceConfig()
		cfg.NumFiles = files
		cfg.Days = days
		cfg.Seed = seed
		return minicost.GenerateTrace(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return minicost.ReadTraceCSV(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minicost:", err)
	os.Exit(1)
}
