package online

import "minicost/internal/obs"

// Metric family names, exported as constants so the obsnames analyzer can
// verify the grammar and single ownership at compile time and so dashboards
// and tests reference the names without string drift (DESIGN.md §17).
const (
	// MetricObservations counts per-file observations that passed the tap.
	MetricObservations = "minicost_online_observations_total"
	// MetricBufferFiles gauges the files the serving store tracks — all of
	// them visible to the learner.
	MetricBufferFiles = "minicost_online_buffer_files"
	// MetricDriftScore gauges the most recent PSI drift score (max over the
	// tracked dimensions) of live traffic vs. the training baseline.
	MetricDriftScore = "minicost_online_drift_score"
	// MetricDriftTriggers counts fine-tune epochs triggered by the drift
	// score crossing the configured threshold (cadence epochs excluded).
	MetricDriftTriggers = "minicost_online_drift_triggers_total"
	// MetricEpochs counts completed fine-tune epochs (accepted or not).
	MetricEpochs = "minicost_online_finetune_epochs_total"
	// MetricEpochLatency times one fine-tune epoch: store snapshot,
	// incremental training, validation, and the swap or rollback.
	MetricEpochLatency = "minicost_online_epoch_seconds"
	// MetricSwaps counts candidate policies hot-swapped into serving.
	MetricSwaps = "minicost_online_swaps_total"
	// MetricSwapsRejected counts candidates the validation gate refused
	// (regressed simulated cost on the held-out slice).
	MetricSwapsRejected = "minicost_online_swaps_rejected_total"
	// MetricDisagreement gauges the fraction of held-out files
	// where the last candidate and the incumbent decided different tiers.
	MetricDisagreement = "minicost_online_policy_disagreement"
	// MetricCheckpoints counts learner checkpoints written to disk.
	MetricCheckpoints = "minicost_online_checkpoints_total"
)

// learnerMetrics are the online subsystem's obs instruments. Like every
// other subsystem they live in the default registry, which is off outside
// daemons, so recording costs one atomic load until a binary opts in.
type learnerMetrics struct {
	observations  *obs.Counter
	bufferFiles   *obs.Gauge
	driftScore    *obs.Gauge
	driftTriggers *obs.Counter
	epochs        *obs.Counter
	epochLat      *obs.Timer
	swaps         *obs.Counter
	swapsRejected *obs.Counter
	disagreement  *obs.Gauge
	checkpoints   *obs.Counter
}

var learnMet = func() learnerMetrics {
	reg := obs.Default()
	return learnerMetrics{
		observations: reg.Counter(MetricObservations,
			"Per-file observations that passed the online learner's tap."),
		bufferFiles: reg.Gauge(MetricBufferFiles,
			"Files the serving store tracks, all visible to the online learner."),
		driftScore: reg.Gauge(MetricDriftScore,
			"PSI drift score of live traffic vs. the training baseline (max over dimensions)."),
		driftTriggers: reg.Counter(MetricDriftTriggers,
			"Fine-tune epochs triggered by the drift score crossing the threshold."),
		epochs: reg.Counter(MetricEpochs,
			"Fine-tune epochs completed by the online learner."),
		epochLat: reg.Timer(MetricEpochLatency,
			"Fine-tune epoch latency: snapshot, training, validation, swap/rollback."),
		swaps: reg.Counter(MetricSwaps,
			"Candidate policies hot-swapped into serving."),
		swapsRejected: reg.Counter(MetricSwapsRejected,
			"Candidate policies rejected by the validation gate (cost regression on held-out slice)."),
		disagreement: reg.Gauge(MetricDisagreement,
			"Fraction of held-out files where candidate and incumbent decide different tiers."),
		checkpoints: reg.Counter(MetricCheckpoints,
			"Learner checkpoints written to disk."),
	}
}()
