package rl

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"minicost/internal/rng"
)

// checkpoint is the on-disk representation of a trained agent. gob keeps it
// dependency-free; the format carries a version so later layouts can stay
// readable.
type checkpoint struct {
	Version int
	Net     NetConfig
	Actor   []float64
	// Critic is optional (serving only needs the actor); nil when absent.
	Critic []float64
}

// checkpointVersion is the current format.
const checkpointVersion = 1

// Save serializes the agent (architecture + actor weights) so a trained
// policy survives process restarts — the paper's workflow deploys the
// trained network on the agent server.
func (a *Agent) Save(w io.Writer) error {
	cp := checkpoint{
		Version: checkpointVersion,
		Net:     a.Net,
		Actor:   a.actor.ParamVector(),
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("rl: write checkpoint: %w", err)
	}
	return nil
}

// LoadAgent reads a checkpoint written by Agent.Save.
func LoadAgent(r io.Reader) (*Agent, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("rl: read checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("rl: unsupported checkpoint version %d", cp.Version)
	}
	if err := cp.Net.Validate(); err != nil {
		return nil, fmt.Errorf("rl: checkpoint: %w", err)
	}
	actor := cp.Net.BuildActor(rng.New(0))
	if len(cp.Actor) != actor.NumParams() {
		return nil, fmt.Errorf("rl: checkpoint has %d actor params, architecture needs %d",
			len(cp.Actor), actor.NumParams())
	}
	if err := checkFinite(cp.Actor); err != nil {
		return nil, err
	}
	actor.SetParamVector(cp.Actor)
	return NewAgent(cp.Net, actor), nil
}

// checkFinite refuses weights a checkpoint must never carry: one NaN or Inf
// poisons every decision (actor) or every advantage (critic) it touches.
func checkFinite(vecs ...[]float64) error {
	for _, vec := range vecs {
		for _, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("rl: checkpoint contains non-finite weights")
			}
		}
	}
	return nil
}

// SaveCheckpoint serializes the trainer's full state (actor and critic
// weights) so training can resume in a new process. Optimizer moments are
// not persisted; resumed training re-warms them, which costs a few hundred
// updates of progress.
func (a *A3C) SaveCheckpoint(w io.Writer) error {
	actor, critic := a.ParamVectors()
	cp := checkpoint{
		Version: checkpointVersion,
		Net:     a.cfg.Net,
		Actor:   actor,
		Critic:  critic,
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("rl: write trainer checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint restores trainer weights saved with SaveCheckpoint. The
// architecture in the checkpoint must match the trainer's configuration.
func (a *A3C) LoadCheckpoint(r io.Reader) error {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return fmt.Errorf("rl: read trainer checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("rl: unsupported checkpoint version %d", cp.Version)
	}
	if cp.Net != a.cfg.Net {
		return fmt.Errorf("rl: checkpoint architecture %+v != trainer %+v", cp.Net, a.cfg.Net)
	}
	if err := checkFinite(cp.Actor, cp.Critic); err != nil {
		return err
	}
	if err := a.SetParamVectors(cp.Actor, cp.Critic); err != nil {
		return fmt.Errorf("rl: checkpoint: %w", err)
	}
	return nil
}
