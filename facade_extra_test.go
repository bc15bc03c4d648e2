package minicost_test

import (
	"math"
	"net/http/httptest"
	"testing"

	"minicost"
)

// TestMultiDatacenterViaScore runs README's multi-datacenter recipe: score
// each datacenter's files under its own prices and add the bills. Bills are
// per file, so with one price schedule everywhere the split sum is the
// single-datacenter bill, and dearer hot storage in one datacenter raises it.
func TestMultiDatacenterViaScore(t *testing.T) {
	tr := smallTrace(t)
	eu := minicost.AzurePricing()
	eu.Tiers[minicost.Hot].StoragePerGBMonth *= 1.5
	byDC := map[string][]int{}
	for i := range tr.Files {
		dc := []string{"us", "eu"}[i%2]
		byDC[dc] = append(byDC[dc], i)
	}
	multiDC := func(prices map[string]*minicost.PricingPolicy) float64 {
		total := 0.0
		for _, dc := range []string{"us", "eu"} {
			board, err := minicost.Score(tr.Subset(byDC[dc]), prices[dc], minicost.GreedyBaseline())
			if err != nil {
				t.Fatal(err)
			}
			total += board[0].Total.Total()
		}
		return total
	}
	board, err := minicost.Score(tr, minicost.AzurePricing(), minicost.GreedyBaseline())
	if err != nil {
		t.Fatal(err)
	}
	one := board[0].Total.Total()
	same := multiDC(map[string]*minicost.PricingPolicy{"us": minicost.AzurePricing(), "eu": minicost.AzurePricing()})
	if math.Abs(same-one) > 1e-9*one {
		t.Fatalf("split bill %v, single-datacenter bill %v", same, one)
	}
	if dear := multiDC(map[string]*minicost.PricingPolicy{"us": minicost.AzurePricing(), "eu": eu}); dear <= one {
		t.Fatalf("dearer eu hot storage billed %v, not above %v", dear, one)
	}
}

func TestAgentServerThroughFacade(t *testing.T) {
	tr := smallTrace(t)
	cfg := minicost.DefaultConfig()
	cfg.TrainSteps = 0 // untrained snapshot is fine for API plumbing
	sys, err := minicost.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := minicost.NewAgentServer(sys, minicost.Hot); err == nil {
		t.Fatal("server from untrained system accepted")
	}
	if _, err := sys.Train(tr); err != nil {
		t.Fatal(err)
	}
	srv, err := minicost.NewAgentServer(sys, minicost.Hot)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := minicost.NewAgentClient(ts.URL)
	if _, err := client.Observe(&minicost.AgentObserveRequest{
		Files: []minicost.AgentFileObservation{{ID: "a", SizeGB: 0.1, Reads: 5}},
	}); err != nil {
		t.Fatal(err)
	}
	plan, err := client.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Files) != 1 || plan.Files[0].ID != "a" {
		t.Fatalf("plan %+v", plan)
	}
}
