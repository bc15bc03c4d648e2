package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkJSON is the repository-root contract file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if spec.RunSeconds < 1 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds %d", spec.RunSeconds)
	}
	return &spec, nil
}

// repeatCheck runs every selected workload twice — two full sets — prints
// both, and fails if any end-to-end metric's second reading is worse than
// its first by more than the metric's bound.
func repeatCheck(ctx context.Context, selected []workload, spec *benchmarkJSON, runOne func(workload) (*result, error)) error {
	sets := [2]map[string]*result{{}, {}}
	for i := range sets {
		for _, w := range selected {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res, err := runOne(w)
			if err != nil {
				return err
			}
			fmt.Printf("-- set %d\n", i+1)
			if err := res.print(false); err != nil {
				return err
			}
			sets[i][w.Name] = res
		}
	}
	bad := 0
	fmt.Printf("== repeat-check: set 2 against set 1\n")
	for _, w := range selected {
		a, b := sets[0][w.Name], sets[1][w.Name]
		if !a.Correct || !b.Correct {
			fmt.Printf("   %-14s FAILED its output checks\n", w.Name)
			bad++
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.EndToEnd[m.Name], b.EndToEnd[m.Name]
			worse := (vb - va) / va // share of the first reading by which the second is worse
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			if math.IsNaN(worse) || worse > m.Bound {
				verdict = "OUTSIDE BOUND"
				bad++
			}
			fmt.Printf("   %-14s %-18s %14.6g %14.6g  worse by %+7.2f%% (bound %.0f%%) %s\n",
				w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("repeat-check: %d reading(s) outside their bound or incorrect", bad)
	}
	return nil
}
