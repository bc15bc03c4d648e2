// Command experiments reproduces the paper's figures end to end: the trace
// analysis of §3.1 (Figs. 2–4, on the generated workload alone) and the
// evaluation of §6 (Figs. 7–13, which train the MiniCost A3C agent first).
// It prints the data series behind each figure.
//
// Usage:
//
//	experiments -fig 2,3,4 -profile full # trace analysis, 2000 files x 63 days
//	experiments -fig 7                  # one figure (trains the agent)
//	experiments -fig all -profile quick # everything, scaled down
//	experiments -fig 9 -profile full    # learning-rate sweep, full profile
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"minicost/internal/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figures, comma-separated: 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, breakdown, or all")
		profile = flag.String("profile", "quick", "workload profile: quick or full")
		files   = flag.Int("files", 0, "override file count")
		days    = flag.Int("days", 0, "override trace days")
		steps   = flag.Int64("train-steps", 0, "override training steps")
		seed    = flag.Uint64("seed", 1, "workload/training seed")
		psi     = flag.Int("psi", 0, "aggregation Psi for fig 13 (0 = default)")
		runs    = flag.Int("runs", 0, "repetitions for fig 11 (0 = default)")
	)
	flag.Parse()

	cfg, lcfg := experiments.Quick(), experiments.QuickLearningConfig()
	switch *profile {
	case "quick":
	case "full":
		cfg, lcfg = experiments.Full(), experiments.DefaultLearningConfig()
	default:
		fatal(fmt.Errorf("unknown profile %q (want quick or full)", *profile))
	}

	cfg.Seed = *seed
	lcfg.Seed = *seed
	if *files > 0 {
		cfg.Files = *files
	}
	if *days > 0 {
		cfg.Days = *days
	}
	if *steps > 0 {
		cfg.TrainSteps = *steps
	}

	// The workload is generated on first use; the agent is trained only for
	// a figure that evaluates it.
	var lab *experiments.Lab
	getLab := func() *experiments.Lab {
		if lab == nil {
			var err error
			lab, err = experiments.NewLab(cfg)
			if err != nil {
				fatal(err)
			}
		}
		return lab
	}
	trained := false
	trainedLab := func() *experiments.Lab {
		l := getLab()
		if !trained {
			fmt.Fprintf(os.Stderr, "[experiments] training agent (%d steps, %d files)...\n", cfg.TrainSteps, cfg.Files)
			start := time.Now()
			if _, err := l.TrainAgent(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "[experiments] trained in %s\n", time.Since(start).Round(time.Second))
			trained = true
		}
		return l
	}

	run := func(name string) {
		switch name {
		case "2":
			fmt.Println("== Fig 2: files per daily-request-frequency sigma bucket ==")
			getLab().Fig2().Render(os.Stdout)
		case "3":
			fmt.Println("== Fig 3: potential saved money per sigma bucket ==")
			r, err := getLab().Fig3()
			if err != nil {
				fatal(err)
			}
			r.Render(os.Stdout)
		case "4":
			fmt.Println("== Fig 4: ARIMA 7-day prediction error per sigma bucket ==")
			r, err := getLab().Fig4()
			if err != nil {
				fatal(err)
			}
			r.Render(os.Stdout)
		case "7":
			fmt.Println("== Fig 7: total cost vs days (Hot/Cold/Greedy/MiniCost/Optimal) ==")
			r, err := trainedLab().Fig7()
			if err != nil {
				fatal(err)
			}
			r.Render(os.Stdout)
		case "8":
			fmt.Println("== Fig 8: daily cost per sigma bucket ==")
			r, err := trainedLab().Fig8()
			if err != nil {
				fatal(err)
			}
			r.Render(os.Stdout)
		case "9":
			fmt.Println("== Fig 9: steps to convergence vs learning rate ==")
			r, err := experiments.Fig9(lcfg, nil)
			if err != nil {
				fatal(err)
			}
			r.Render(os.Stdout)
			fmt.Printf("best learning rate: %.4f\n", r.BestLR())
		case "10":
			fmt.Println("== Fig 10: optimal-action rate vs steps for greedy rates ==")
			r, err := experiments.Fig10(lcfg, nil)
			if err != nil {
				fatal(err)
			}
			r.Render(os.Stdout)
		case "11":
			fmt.Println("== Fig 11: optimal-action rate vs network width ==")
			r, err := experiments.Fig11(lcfg, nil, *runs)
			if err != nil {
				fatal(err)
			}
			r.Render(os.Stdout)
		case "12":
			fmt.Println("== Fig 12: per-day computing overhead ==")
			r, err := trainedLab().Fig12()
			if err != nil {
				fatal(err)
			}
			r.Render(os.Stdout)
		case "13":
			fmt.Println("== Fig 13: aggregation enhancement ==")
			r, err := trainedLab().Fig13(*psi)
			if err != nil {
				fatal(err)
			}
			r.Render(os.Stdout)
		case "breakdown":
			fmt.Println("== Extension: per-method cost breakdown ==")
			if err := trainedLab().CostBreakdownTable(os.Stdout); err != nil {
				fatal(err)
			}
		default:
			fatal(fmt.Errorf("unknown figure %q", name))
		}
		fmt.Println()
	}

	if *fig == "all" {
		for _, f := range []string{"2", "3", "4", "7", "8", "12", "13", "breakdown", "9", "10", "11"} {
			run(f)
		}
	} else {
		for _, f := range strings.Split(*fig, ",") {
			run(strings.TrimSpace(f))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
