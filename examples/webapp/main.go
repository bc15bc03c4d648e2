// Webapp simulates the paper's motivating scenario (Fig. 1): a web
// application whose media files live in cloud storage and whose traffic
// mixes a small set of viral pages with a long tail of dormant ones,
// including a mid-life "flash crowd" — the request-frequency regime change
// that makes static tiering expensive.
//
// The example builds the workload by hand (no generator) to show the Trace
// data model, trains MiniCost, and reports how each file class ends up
// tiered.
//
//	go run ./examples/webapp
package main

import (
	"fmt"
	"log"
	"math"

	"minicost"
)

const days = 35

// class describes one population of files in the web application.
type class struct {
	name      string
	count     int
	sizeGB    float64
	dailyRate func(day int) float64
}

func main() {
	classes := []class{
		{
			// The landing page's media: always busy, weekly cycle.
			name: "landing", count: 5, sizeGB: 0.25,
			dailyRate: func(d int) float64 {
				return 3000 * (1 + 0.3*math.Sin(2*math.Pi*float64(d)/7))
			},
		},
		{
			// A viral article: dormant, then a flash crowd in week 3 that
			// ramps up over days (as real crowds do) and decays.
			name: "viral", count: 20, sizeGB: 0.1,
			dailyRate: func(d int) float64 {
				switch {
				case d < 14:
					return 0.01
				case d < 17:
					// ramp: 8 -> 80 -> 800
					return 8 * math.Pow(10, float64(d-14))
				case d < 24:
					return 800 * math.Exp(-float64(d-17)/3)
				default:
					return 2
				}
			},
		},
		{
			// The archive of old posts: almost never read.
			name: "dormant", count: 300, sizeGB: 0.12,
			dailyRate: func(d int) float64 { return 0.004 },
		},
		{
			// Steady mid-tail content.
			name: "steady", count: 60, sizeGB: 0.08,
			dailyRate: func(d int) float64 { return 0.5 },
		},
	}

	tr := &minicost.Trace{Days: days}
	var classOf []int
	for ci, c := range classes {
		for k := 0; k < c.count; k++ {
			id := tr.NumFiles()
			tr.Files = append(tr.Files, minicost.TraceFileMeta{ID: id, SizeGB: c.sizeGB})
			reads := make([]float64, days)
			writes := make([]float64, days)
			for d := 0; d < days; d++ {
				reads[d] = c.dailyRate(d)
				writes[d] = reads[d] * 0.01
			}
			tr.Reads = append(tr.Reads, reads)
			tr.Writes = append(tr.Writes, writes)
			classOf = append(classOf, ci)
		}
	}
	if err := tr.Validate(); err != nil {
		log.Fatal(err)
	}

	cfg := minicost.DefaultConfig()
	cfg.TrainSteps = 300000
	cfg.A3C.Net.Filters = 32
	cfg.A3C.Net.Hidden = 64
	sys, err := minicost.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training on the web application's history...")
	if _, err := sys.Train(tr); err != nil {
		log.Fatal(err)
	}
	report, err := sys.Run(tr)
	if err != nil {
		log.Fatal(err)
	}

	board, err := minicost.Score(tr, minicost.AzurePricing(), minicost.Baselines()...)
	if err != nil {
		log.Fatal(err)
	}
	hot, _ := board.Find("hot")
	greedy, _ := board.Find("greedy")
	opt, _ := board.Find("optimal")
	fmt.Printf("\nbill: minicost $%.4f | all-hot $%.4f | greedy $%.4f | offline optimal $%.4f\n",
		report.Total.Total(), hot.Total.Total(), greedy.Total.Total(), opt.Total.Total())
	fmt.Printf("tier changes: %d over %d file-days\n\n", report.TierChanges, tr.NumFiles()*days)

	// Where did each class end up? Re-derive the final-day tier per class
	// using the system's assigner.
	assigner, err := sys.Assigner()
	if err != nil {
		log.Fatal(err)
	}
	asg, err := assigner.Assign(tr, sys.Model(), minicost.Hot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %8s %8s %8s   (final-day tier distribution)\n", "class", "hot", "cool", "archive")
	for ci, c := range classes {
		var counts [3]int
		for i := range asg {
			if classOf[i] == ci {
				counts[asg[i][days-1]]++
			}
		}
		fmt.Printf("%-10s %8d %8d %8d\n", c.name, counts[0], counts[1], counts[2])
	}
}
