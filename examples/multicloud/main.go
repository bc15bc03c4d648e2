// Multicloud prices the same workload under several CSP / datacenter price
// schedules and shows how the optimal tiering plan — and the money MiniCost
// can save — shifts with the schedule. This exercises the paper's remark
// (§4.2.1) that the tier set Γ and prices extend to multiple CSPs.
//
//	go run ./examples/multicloud
package main

import (
	"fmt"
	"log"

	"minicost"
)

// schedule builds a named variant of the Azure schedule.
func schedule(name string, mutate func(*minicost.PricingPolicy)) *minicost.PricingPolicy {
	p := minicost.AzurePricing()
	p.Name = name
	if mutate != nil {
		mutate(p)
	}
	if err := p.Validate(); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return p
}

func main() {
	traceCfg := minicost.DefaultTraceConfig()
	traceCfg.NumFiles = 400
	traceCfg.Days = 28
	workload, err := minicost.GenerateTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}

	providers := []*minicost.PricingPolicy{
		schedule("azure-us-west", nil),
		// A provider with pricey hot storage (archive looks better).
		schedule("provider-b-expensive-hot", func(p *minicost.PricingPolicy) {
			p.Tiers[minicost.Hot].StoragePerGBMonth *= 2
		}),
		// A provider with cheap retrieval (cool/archive look better).
		schedule("provider-c-cheap-retrieval", func(p *minicost.PricingPolicy) {
			p.Tiers[minicost.Cool].RetrievalPerGB /= 5
			p.Tiers[minicost.Archive].RetrievalPerGB /= 5
		}),
		// A provider with free tier transitions (re-tiering is risk-free).
		schedule("provider-d-free-moves", func(p *minicost.PricingPolicy) {
			p.TransitionPerGB = 0
		}),
	}

	fmt.Printf("%-28s %12s %12s %12s %10s\n", "provider", "all-hot $", "greedy $", "optimal $", "saving")
	for _, p := range providers {
		board, err := minicost.Score(workload, p, minicost.Baselines()...)
		if err != nil {
			log.Fatal(err)
		}
		hot, _ := board.Find("hot")
		greedy, _ := board.Find("greedy")
		opt, _ := board.Find("optimal")
		h, o := hot.Total.Total(), opt.Total.Total()
		fmt.Printf("%-28s %12.4f %12.4f %12.4f %9.1f%%\n", p.Name, h, greedy.Total.Total(), o, 100*(h-o)/h)
	}

	// A workload genuinely spread across datacenters: partition-aware
	// evaluation bills every file under its own datacenter's schedule
	// (the paper's §4.1 multi-datacenter setting).
	catalog := minicost.NewCatalog()
	for i, p := range providers {
		_ = i
		if err := catalog.Add(p.Name, p); err != nil {
			log.Fatal(err)
		}
	}
	deployment, err := minicost.NewDeployment(catalog, providers[0].Name)
	if err != nil {
		log.Fatal(err)
	}
	spread, err := minicost.AssignDatacenters(workload, []string{providers[0].Name, providers[1].Name})
	if err != nil {
		log.Fatal(err)
	}
	bills, total, err := deployment.Evaluate(minicost.OptimalBaseline(), spread, minicost.Hot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfiles spread across two datacenters (optimal policy per datacenter):")
	for _, b := range bills {
		fmt.Printf("  %-28s %5d files  $%.4f\n", b.Datacenter, b.Files, b.Cost.Total())
	}
	fmt.Printf("  %-28s %5s       $%.4f\n", "total", "", total.Total())

	// Train one MiniCost agent against the provider with the widest
	// optimisation headroom and show it realises most of that headroom.
	target := providers[1] // expensive hot storage: biggest saving potential
	fmt.Printf("\ntraining a MiniCost agent for %s...\n", target.Name)
	cfg := minicost.DefaultConfig()
	cfg.Pricing = target
	cfg.TrainSteps = 400000
	cfg.A3C.Net.Filters = 32
	cfg.A3C.Net.Hidden = 64
	sys, err := minicost.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Train(workload); err != nil {
		log.Fatal(err)
	}
	report, err := sys.Run(workload)
	if err != nil {
		log.Fatal(err)
	}
	board, err := minicost.Score(workload, target, minicost.HotBaseline(), minicost.OptimalBaseline())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s minicost $%.4f (all-hot $%.4f, optimal $%.4f, %d tier changes)\n",
		target.Name, report.Total.Total(), board[0].Total.Total(), board[1].Total.Total(), report.TierChanges)
}
