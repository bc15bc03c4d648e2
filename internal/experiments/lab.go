// Package experiments reproduces every figure of the paper's evaluation
// (Figs. 2–4 trace analysis, Figs. 7–13 system evaluation) on the synthetic
// Wikipedia-like workload. Each FigN function returns a structured result
// with a text rendering, so cmd/experiments and the repository's Go
// benchmarks share one implementation.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
	"minicost/internal/trace"
)

// Config scales the experiments. Full() approximates the paper's setup
// (scaled from 4 M files to a workstation-sized population, see DESIGN.md);
// Quick() is the fast profile used by tests and benches.
type Config struct {
	Files int
	Days  int
	Seed  uint64
	// TrainSteps for the MiniCost agent used in Figs. 7/8/12/13.
	TrainSteps int64
	// Net is the agent architecture (the paper's 128/128 by default).
	Net rl.NetConfig
	// TrainWorkers is the number of A3C workers; 0 keeps
	// rl.DefaultA3CConfig's.
	TrainWorkers int
	// Workers bounds evaluation parallelism.
	Workers int
}

// Full returns the paper-shaped profile.
func Full() Config {
	return Config{
		Files:        2000,
		Days:         63,
		Seed:         1,
		TrainSteps:   400000,
		Net:          rl.DefaultNetConfig(),
		TrainWorkers: 4,
	}
}

// Quick returns a profile that keeps every experiment under a few seconds.
// It trains with one worker; Full keeps the paper's 4. Training is a pure
// function of (config, seed) at every worker count, so both profiles
// reproduce bit for bit.
func Quick() Config {
	return Config{
		Files:        300,
		Days:         42,
		Seed:         1,
		TrainSteps:   120000,
		Net:          rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32},
		TrainWorkers: 1,
	}
}

// Lab owns the shared state of the evaluation: the generated trace, its
// train/test split (80/20 as in §6.1), the cost model, and — once Train has
// run — the MiniCost agent.
type Lab struct {
	Cfg   Config
	Model *costmodel.Model
	// Trace is the full workload; Train/Test the 80/20 file split.
	Trace *trace.Trace
	Train *trace.Trace
	Test  *trace.Trace

	agent *rl.Agent
}

// NewLab generates the workload and splits it.
func NewLab(cfg Config) (*Lab, error) {
	gen := trace.DefaultGenConfig()
	gen.NumFiles = cfg.Files
	gen.Days = cfg.Days
	gen.Seed = cfg.Seed
	tr, err := trace.Generate(gen)
	if err != nil {
		return nil, err
	}
	perm := rng.New(cfg.Seed ^ 0x5111).Perm(tr.NumFiles())
	train, test, err := tr.SplitTrainTest(0.8, perm)
	if err != nil {
		return nil, err
	}
	return &Lab{
		Cfg:   cfg,
		Model: costmodel.New(pricing.Azure()),
		Trace: tr,
		Train: train,
		Test:  test,
	}, nil
}

// TrainAgent trains (once) and returns the MiniCost agent. Subsequent calls
// return the cached agent.
func (l *Lab) TrainAgent() (*rl.Agent, error) {
	if l.agent != nil {
		return l.agent, nil
	}
	cfg := rl.DefaultA3CConfig()
	cfg.Net = l.Cfg.Net
	if l.Cfg.TrainWorkers > 0 {
		cfg.Workers = l.Cfg.TrainWorkers
	}
	cfg.Seed = l.Cfg.Seed
	a3c, err := rl.NewA3C(cfg)
	if err != nil {
		return nil, err
	}
	// Validation-selected snapshot (validation slice drawn from the train
	// split only).
	agent, _, err := rl.TrainWithSelection(a3c, l.Model, l.Train, mdp.DefaultReward(), l.Cfg.TrainSteps, 5, pricing.Hot)
	if err != nil {
		return nil, err
	}
	l.agent = agent
	return l.agent, nil
}

// SetAgent injects a pre-trained agent (tests).
func (l *Lab) SetAgent(a *rl.Agent) { l.agent = a }

// methods returns the paper's five methods, deciding across workers files at
// a time: the baselines, then the MiniCost agent, trained on first use.
func (l *Lab) methods(workers int) ([]policy.Assigner, error) {
	agent, err := l.TrainAgent()
	if err != nil {
		return nil, err
	}
	mini := policy.RL{Agent: agent, HistLen: l.Cfg.Net.HistLen, Workers: workers}
	return append(policy.Baselines(workers), mini), nil
}

// score prices the paper's five methods on tr, every file starting in Hot.
func (l *Lab) score(tr *trace.Trace) (policy.Scoreboard, error) {
	methods, err := l.methods(l.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	return policy.Score(l.Model, tr, pricing.Hot, l.Cfg.Workers, methods...)
}

// renderTable writes an aligned table: header row then data rows.
func renderTable(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		cells := make([]string, len(row))
		for c, cell := range row {
			cells[c] = fmt.Sprintf("%-*s", widths[c], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(cells, "  "), " "))
	}
}

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
