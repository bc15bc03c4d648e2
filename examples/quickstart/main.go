// Quickstart: generate a small workload, train MiniCost, and compare its
// bill with the paper's baselines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"minicost"
)

func main() {
	// A workstation-sized workload: 300 files over six weeks, calibrated to
	// the paper's Wikipedia-trace statistics.
	traceCfg := minicost.DefaultTraceConfig()
	traceCfg.NumFiles = 300
	traceCfg.Days = 42
	workload, err := minicost.GenerateTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}

	// Train on the first three weeks of history...
	history, err := workload.Window(0, 21)
	if err != nil {
		log.Fatal(err)
	}
	// ...and serve the rest.
	live, err := workload.Window(21, workload.Days)
	if err != nil {
		log.Fatal(err)
	}

	cfg := minicost.DefaultConfig()
	cfg.TrainSteps = 400000
	cfg.A3C.Net.Filters = 32 // the paper uses 128; 32 trains in seconds
	cfg.A3C.Net.Hidden = 64
	sys, err := minicost.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training the A3C agent...")
	if _, err := sys.Train(history); err != nil {
		log.Fatal(err)
	}

	report, err := sys.Run(live)
	if err != nil {
		log.Fatal(err)
	}

	board, err := minicost.Score(live, minicost.AzurePricing(), minicost.Baselines()...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %10s\n", "method", "bill ($)")
	for _, r := range board {
		fmt.Printf("%-10s %10.4f\n", r.Name, r.Total.Total())
	}
	fmt.Printf("%-10s %10.4f   (%d tier changes, %s compute)\n",
		"minicost", report.Total.Total(), report.TierChanges, report.DecisionTime.Round(1000000))

	hot, _ := board.Find("hot")
	saved := hot.Total.Total() - report.Total.Total()
	fmt.Printf("\nsaved vs. keeping everything hot: $%.4f (%.1f%%)\n", saved, 100*saved/hot.Total.Total())
}
