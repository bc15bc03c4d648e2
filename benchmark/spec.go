package main

import "minicost/internal/rl"

// metricSpec names one reported metric. The end-to-end table below and
// BENCHMARK.json must agree (TestSpecMatchesBenchmarkJSON pins it); bounds
// live only in BENCHMARK.json's copy because the harness reports, it does
// not gate — except -repeat-check, which reads them back from there.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of each workload sees. Every workload reports
// every metric; what each one means per workload is in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"file_days_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is the traced run's budget: one row per layer boundary the
// harness can time from outside. A layer a workload never enters reports 0
// there — that is the "must not move" column of README.md's table. The
// live tail percentile leads the list: it is an end-to-end figure, but its
// run-to-run spread on a shared 2-core box (12–18 % on the workloads whose
// tail is thin) cannot hold a bound, so it is printed, not gated.
var perLayer = []metricSpec{
	{"live.latency_p90_ms", "ms", "lower"},
	{"codec.observe_decode_ms", "ms", "lower"},
	{"codec.observe_decode_mb_per_s", "MB/s", "higher"},
	{"codec.observe_allocs", "count", "lower"},
	{"codec.plan_encode_ms", "ms", "lower"},
	{"codec.plan_bytes", "count", "lower"},
	{"http.observe_residual_ms", "ms", "lower"},
	{"http.plan_residual_ms", "ms", "lower"},
	{"agentserver.observe_ms", "ms", "lower"},
	{"agentserver.observe_new_ms", "ms", "lower"},
	{"agentserver.plan_ms", "ms", "lower"},
	{"agentserver.plan_store_ms", "ms", "lower"},
	{"agentserver.plan_decided", "count", "lower"},
	{"agentserver.plan_transitions", "count", "lower"},
	{"agentserver.plan_useful_ratio", "ratio", "higher"},
	{"agentserver.heap_bytes_per_file", "count", "lower"},
	{"online.heap_bytes_per_file", "count", "lower"},
	{"online.tap_us_per_batch", "us", "lower"},
	{"online.epoch_s", "s", "lower"},
	{"online.epochs", "count", "higher"},
	{"online.swaps", "count", "higher"},
	{"online.swaps_rejected", "count", "lower"},
	{"online.epoch_busy_share", "ratio", "lower"},
	{"par.forshards_us", "us", "lower"},
	{"rl.decide_us_per_row_m64", "us", "lower"},
	{"rl.decide_us_per_row_m1024", "us", "lower"},
	{"rl.finetune_steps_per_s", "1/s", "higher"},
	{"rl.train_updates", "count", "higher"},
	{"rl.train_episodes", "count", "higher"},
	{"rl.selection_overhead_s", "s", "lower"},
	{"nn.forward_us_per_row", "us", "lower"},
	{"nn.backward_us_per_row", "us", "lower"},
	{"mat.gemm_gflops_fwd", "GFLOP/s", "higher"},
	{"mat.gemm_gflops_grad", "GFLOP/s", "higher"},
	{"mat.flops_per_decision", "count", "lower"},
	{"mdp.stepall_ns_per_env", "ns", "lower"},
	{"mdp.fillfeatures_ns_per_env", "ns", "lower"},
	{"policy.rl_assign_us_per_file_day", "us", "lower"},
	{"policy.greedy_ns_per_file_day", "ns", "lower"},
	{"policy.optimal_ns_per_file_day", "ns", "lower"},
	{"policy.cost_ratio", "ratio", "lower"},
	{"policy.greedy_cost_ratio", "ratio", "lower"},
	{"policy.hot_cost_ratio", "ratio", "lower"},
	{"costmodel.tracecost_ns_per_file_day", "ns", "lower"},
	{"trace.generate_s", "s", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"obs.scrape_ms", "ms", "lower"},
	{"daemon.cpu_s_per_mfd", "s", "lower"},
	{"loadgen.busy_share", "ratio", "lower"},
}

// Network shapes the workloads load. Serving latency does not depend on the
// weights, so serving checkpoints are freshly initialised from the seed
// (writeAgentCheckpoint).
var (
	netHist14Small = rl.NetConfig{HistLen: 14, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
	netPaper128    = rl.NetConfig{HistLen: 14, Filters: 128, Kernel: 4, Stride: 1, Hidden: 128}
	netBoot64      = rl.NetConfig{HistLen: 14, Filters: 32, Kernel: 4, Stride: 1, Hidden: 64}
	netQuick16     = rl.NetConfig{HistLen: 7, Filters: 16, Kernel: 4, Stride: 1, Hidden: 32}
)

// ingestParams sizes serve-ingest: full daily sweeps of the population in
// Batch-file POSTs.
type ingestParams struct {
	Net        rl.NetConfig
	Files      int
	Batch      int
	FillSweeps int // set-up sweeps: slot creation and first ring writes
}

// replanParams sizes replan-sparse and replan-dense: each round observes
// Touch rotating files then fetches the incremental plan. The dense sizing
// touches every file every round, so each plan decides exactly Files rows.
type replanParams struct {
	Net          rl.NetConfig
	Files        int
	Batch        int // set-up sweep batch
	FillSweeps   int
	SettlePlans  int // set-up plans after the first: a committed tier change re-dirties its file, so the all-dirty first plan echoes for a few plans
	Touch        int
	VerifyRounds int // leading rounds the in-process shadow server replays
}

// onlineParams sizes serve-online: each day posts the whole population in
// one batch and fetches the (all-dirty) plan while the learner fine-tunes
// on a batch cadence.
type onlineParams struct {
	Net           rl.NetConfig
	Files         int
	FillDays      int // set-up days; must reach the learner's 14-day training minimum
	DriftDay      int // measured day from which traffic turns cold and bulky
	FinetuneEvery int
	FinetuneSteps int
	FinetuneEnvs  int
	MinEpochs     int // epochs a full-length run must complete (a shorter one owes one per cadence, less the one in flight)
}

// trainParams sizes train-offline. Fit is fixed work (its result must
// repeat exactly); the train and eval phases fill the measured seconds.
type trainParams struct {
	TrainFiles, TrainDays int
	TrainNet              rl.NetConfig
	TrainEnvs             int
	TrainSlice            int64 // steps per timed TrainFrom slice
	TrainShare            float64
	FitNet                rl.NetConfig
	FitSteps              int64
	FitChunks             int
	EvalFiles, EvalDays   int
	HashSteps             int64 // steps of each same-seed determinism run
}

// params is one run's full sizing; the run stamp records it.
type params struct {
	SetupReps int // set-ups per run; setup_s is their median
	Ingest    ingestParams
	Sparse    replanParams
	Dense     replanParams
	Online    onlineParams
	Train     trainParams
}

// fullParams is the gated sizing, tuned on a 2-core box so that one run —
// inputs, SetupReps set-ups, --seconds measured, verification — stays under
// half a minute and every tail percentile has its ten samples beyond.
func fullParams() params {
	return params{
		SetupReps: 3,
		Ingest: ingestParams{
			Net: netHist14Small, Files: 131072, Batch: 8192, FillSweeps: 2,
		},
		Sparse: replanParams{
			Net: netHist14Small, Files: 65536, Batch: 8192, FillSweeps: 2, SettlePlans: 2,
			Touch: 64, VerifyRounds: 31,
		},
		Dense: replanParams{
			Net: netPaper128, Files: 1024, Batch: 1024, FillSweeps: 2, SettlePlans: 1,
			Touch: 1024, VerifyRounds: 21,
		},
		Online: onlineParams{
			Net: netBoot64, Files: 4096, FillDays: 15, DriftDay: 60,
			FinetuneEvery: 40, FinetuneSteps: 2048, FinetuneEnvs: 8, MinEpochs: 3,
		},
		Train: trainParams{
			TrainFiles: 500, TrainDays: 42,
			TrainNet: netPaper128, TrainEnvs: 16, TrainSlice: 512, TrainShare: 0.5,
			FitNet: netQuick16, FitSteps: 100000, FitChunks: 5,
			EvalFiles: 200, EvalDays: 42,
			HashSteps: 1024,
		},
	}
}

// smokeParams keeps every code path and every check of fullParams at sizes
// where all five workloads finish in a few seconds (go test's smoke run).
func smokeParams() params {
	small := rl.NetConfig{HistLen: 14, Filters: 4, Kernel: 4, Stride: 1, Hidden: 8}
	return params{
		SetupReps: 1,
		Ingest: ingestParams{
			Net: small, Files: 2048, Batch: 256, FillSweeps: 2,
		},
		Sparse: replanParams{
			Net: small, Files: 1024, Batch: 1024, FillSweeps: 2, SettlePlans: 2,
			Touch: 16, VerifyRounds: 21,
		},
		Dense: replanParams{
			Net: small, Files: 512, Batch: 512, FillSweeps: 2, SettlePlans: 1,
			Touch: 512, VerifyRounds: 21,
		},
		Online: onlineParams{
			Net: small, Files: 256, FillDays: 15, DriftDay: 30,
			FinetuneEvery: 40, FinetuneSteps: 128, FinetuneEnvs: 4, MinEpochs: 1,
		},
		Train: trainParams{
			TrainFiles: 60, TrainDays: 28,
			TrainNet: netQuick16, TrainEnvs: 4, TrainSlice: 64, TrainShare: 0.5,
			FitNet: netQuick16, FitSteps: 6000, FitChunks: 3,
			EvalFiles: 20, EvalDays: 28,
			HashSteps: 128,
		},
	}
}
