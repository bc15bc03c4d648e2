package rl

import "fmt"

// FineTune resumes training for `steps` additional environment steps drawn
// from src — the online learner's incremental-epoch entry point. TrainFrom's
// workers run until the global step counter reaches the given total, so
// passing the current count plus the increment turns the same training
// engine (the Workers and EnvsPerWorker knobs included) into a resumable
// fine-tuner: each call picks up exactly where the last one stopped, with
// the learning-rate anneal continuing along the trainer's TotalSteps
// schedule (fine-tune epochs past the horizon run at the annealed floor,
// which is the conventional regime for online adaptation).
func (a *A3C) FineTune(src EnvSource, steps int64) (TrainStats, error) {
	if steps <= 0 {
		return TrainStats{}, fmt.Errorf("rl: fine-tune steps %d", steps)
	}
	return a.TrainFrom(src, a.Steps()+steps)
}

// ParamVectors returns copies of the global actor and critic parameter
// vectors — the rollback point the online learner captures before a
// fine-tune epoch, without the gob round-trip a checkpoint would cost.
func (a *A3C) ParamVectors() (actor, critic []float64) {
	a.mu.RLock()
	actor = append([]float64(nil), a.actor...)
	critic = append([]float64(nil), a.critic...)
	a.mu.RUnlock()
	return actor, critic
}

// SetParamVectors installs the given parameter vectors as the global
// weights (the learner's rollback after a rejected candidate, or a warm
// start from an actor-only serving checkpoint paired with a fresh critic).
// Vectors are copied; the optimizer moments are left as-is, matching
// LoadCheckpoint's resume semantics.
func (a *A3C) SetParamVectors(actor, critic []float64) error {
	if len(actor) != len(a.actor) || len(critic) != len(a.critic) {
		return fmt.Errorf("rl: param vectors %d/%d do not match trainer %d/%d",
			len(actor), len(critic), len(a.actor), len(a.critic))
	}
	a.mu.Lock()
	copy(a.actor, actor)
	copy(a.critic, critic)
	a.mu.Unlock()
	return nil
}
