package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"minicost/internal/agentserver"
)

// BENCHMARK.json is read by the driver, spec.go by the harness: they must
// name the same workloads and metrics.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadBenchmarkJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness {%s %s}", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, got, m)
		}
		if !(got.Bound > 0 && got.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
		hasSetup = hasSetup || (got.Name == "setup_s" && got.Unit == "s" && got.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, got, m)
		}
	}
}

// The oracle is fed observation structs, the daemon JSON bodies: both must
// carry bit-identical numbers, in both traffic regimes.
func TestBodyDecodesToObservations(t *testing.T) {
	pop := newPopulation(11, 300)
	for _, drifted := range []bool{false, true} {
		for day := 0; day < 2*cycleDays; day++ {
			var req agentserver.ObserveRequest
			if err := json.Unmarshal(pop.appendBody(nil, 40, 300, day, drifted), &req); err != nil {
				t.Fatal(err)
			}
			want := pop.fill(nil, 40, 300, day, drifted)
			if !reflect.DeepEqual(req.Files, want) {
				t.Fatalf("day %d drifted=%v: body decodes to different observations", day, drifted)
			}
			if !reflect.DeepEqual(want, pop.fill(nil, 40, 300, day+cycleDays, drifted)) {
				t.Fatalf("day %d: observations do not repeat after %d days", day, cycleDays)
			}
		}
	}
	for i := 0; i < 300; i++ {
		if o := pop.observation(i, 3, false); !(o.SizeGB > 0) || o.Reads < 0 || o.Writes < 0 {
			t.Fatalf("file %d: observation %+v would be rejected by /v1/observe", i, o)
		}
	}
}

func TestSelfTimeSubtractsChildrenAndShadows(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "request", StartNS: 0, EndNS: 10e6, Parent: -1, Req: 0},
		{Name: "decode", StartNS: 1e6, EndNS: 4e6, Parent: 0, Req: 0},
		{Name: "plan", StartNS: 4e6, EndNS: 9e6, Parent: 0, Req: 0},
		{Name: "decide", StartNS: 20e6, EndNS: 23e6, Parent: 2, Req: 0, Shadow: true},
		{Name: "request", StartNS: 30e6, EndNS: 31e6, Parent: -1, Req: 1},
	}}
	self := r.selfMS(nil)
	want := map[string][]float64{"request": {2, 1}, "decode": {3}, "plan": {2}, "decide": {3}}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got := r.selfMS(func(req int32) bool { return req == 1 }); !reflect.DeepEqual(got, map[string][]float64{"request": {1}}) {
		t.Errorf("filtered self times %v", got)
	}
	var none *recorder
	none.end(none.begin("x", -1, 0)) // a nil recorder must be inert
}

func TestPromValue(t *testing.T) {
	text := []byte("# HELP x\nminicost_online_epoch_seconds_bucket{le=\"1\"} 3\n" +
		"minicost_online_epoch_seconds_sum 1.75\nminicost_online_epoch_seconds_count 3\n" +
		"labelled{endpoint=\"plan\"} 42\n")
	if got := promValue(text, "minicost_online_epoch_seconds_sum"); got != 1.75 { //minicost:allow-floatcmp parsed literal
		t.Errorf("sum = %v", got)
	}
	if got := promValue(text, "labelled"); got != 42 { //minicost:allow-floatcmp parsed literal
		t.Errorf("labelled = %v", got)
	}
	if got := promValue(text, "minicost_online_epoch_seconds"); got != 0 { //minicost:allow-floatcmp absent series
		t.Errorf("bare family name matched a longer series: %v", got)
	}
}
