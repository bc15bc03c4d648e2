package rl

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"
)

// sgd is plain gradient descent, params −= lr·g. The exact-resume tests
// train with it because it keeps no state a checkpoint would have to carry.
type sgd struct{ lr float64 }

func (o *sgd) Step(params, grads []float64) {
	for i, g := range grads {
		params[i] -= o.lr * g
	}
}

func (o *sgd) LearningRate() float64 { return o.lr }

func (o *sgd) SetLearningRate(lr float64) { o.lr = lr }

// newSGDTrainer is NewA3C with both optimizers replaced by sgd at the rates
// NewA3C gives RMSProp.
func newSGDTrainer(t *testing.T, cfg A3CConfig) *A3C {
	t.Helper()
	a3c, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a3c.actorOpt = &sgd{lr: cfg.LearningRate}
	a3c.criticOpt = &sgd{lr: cfg.LearningRate * cfg.CriticLRMult}
	return a3c
}

// TestCheckpointRoundTripResumesBatchedTraining checks SaveCheckpoint /
// LoadCheckpoint at the default width (E=1): a run saved mid-training and
// resumed in a fresh process must land exactly where the original run does.
// SGD with annealing disabled makes the comparison exact (the checkpoint
// deliberately omits optimizer moments and the global step counter, the two
// pieces of state RMSProp/annealing would additionally need).
func TestCheckpointRoundTripResumesBatchedTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := smallA3CConfig()
	cfg.Workers = 1
	cfg.FinalLRFraction = 1
	src := traceSource(t, polarTrace(t, 8, 14), cfg.Net.HistLen)

	orig := newSGDTrainer(t, cfg)
	if _, err := orig.TrainFrom(src, 300); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Continue the original for another 300 steps (TrainFrom resumes from
	// the global step counter).
	if _, err := orig.TrainFrom(src, 600); err != nil {
		t.Fatal(err)
	}

	resumed := newSGDTrainer(t, cfg)
	if err := resumed.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.TrainFrom(src, 300); err != nil {
		t.Fatal(err)
	}

	assertVectorsBitwise(t, "actor", resumed.actor, orig.actor)
	assertVectorsBitwise(t, "critic", resumed.critic, orig.critic)
}

// TestLoadCheckpointRepublishesSnapshot guards the workers' pull source
// directly: after a load, a replica bound the way a round binds it must see
// the restored weights, not the ones initialized at construction.
func TestLoadCheckpointRepublishesSnapshot(t *testing.T) {
	cfg := smallA3CConfig()
	src, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src.actor {
		src.actor[i] = float64(i%13) * 0.01
	}
	for i := range src.critic {
		src.critic[i] = -float64(i%7) * 0.02
	}
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	actor, critic := dst.protoActor.BoundClone(), dst.protoCritic.BoundClone()
	actor.BindParamVector(dst.actor)
	critic.BindParamVector(dst.critic)
	assertVectorsBitwise(t, "actor", actor.ParamVector(), src.actor)
	assertVectorsBitwise(t, "critic", critic.ParamVector(), src.critic)
}

// checkpointBytes saves a fresh trainer of cfg whose global weights were
// first passed to edit (nil leaves them as initialized).
func checkpointBytes(tb testing.TB, cfg A3CConfig, edit func(actor, critic []float64)) []byte {
	tb.Helper()
	a3c, err := NewA3C(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if edit != nil {
		edit(a3c.actor, a3c.critic)
	}
	var buf bytes.Buffer
	if err := a3c.SaveCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// encodeCheckpoint gob-encodes cp as written, valid or not.
func encodeCheckpoint(tb testing.TB, cp checkpoint) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadCheckpointRejectsNonFinite: a trainer checkpoint carrying a NaN or
// Inf weight — in the critic as much as in the actor — is refused with
// LoadAgent's error, and the refused load leaves the trainer's global
// weights as they were.
func TestLoadCheckpointRejectsNonFinite(t *testing.T) {
	cfg := smallA3CConfig()
	for _, c := range []struct {
		name string
		edit func(actor, critic []float64)
	}{
		{"NaN critic", func(_, critic []float64) { critic[len(critic)/2] = math.NaN() }},
		{"+Inf actor", func(actor, _ []float64) { actor[3] = math.Inf(1) }},
	} {
		data := checkpointBytes(t, cfg, c.edit)
		dst, err := NewA3C(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantA, wantC := dst.ParamVectors()
		err = dst.LoadCheckpoint(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%s: LoadCheckpoint error %v, want the non-finite refusal", c.name, err)
		}
		gotA, gotC := dst.ParamVectors()
		assertVectorsBitwise(t, c.name+": actor after refusal", gotA, wantA)
		assertVectorsBitwise(t, c.name+": critic after refusal", gotC, wantC)
	}
}

// FuzzLoadCheckpoint feeds the trainer's checkpoint decoder arbitrary bytes:
// truncated and garbage gob, a wrong version, a wrong architecture, wrong
// parameter counts and non-finite weights among the seeds. Whatever arrives,
// the load either is refused and leaves the global weights untouched, or
// publishes exactly the finite weights the stream carries.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := smallA3CConfig()
	valid := checkpointBytes(f, cfg, nil)
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&cp); err != nil {
		f.Fatal(err)
	}
	wide := cp.Net
	wide.Hidden++
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("not a gob stream"))
	f.Add([]byte{})
	f.Add(encodeCheckpoint(f, checkpoint{Version: checkpointVersion + 1, Net: cp.Net, Actor: cp.Actor, Critic: cp.Critic}))
	f.Add(encodeCheckpoint(f, checkpoint{Version: checkpointVersion, Net: wide, Actor: cp.Actor, Critic: cp.Critic}))
	f.Add(encodeCheckpoint(f, checkpoint{Version: checkpointVersion, Net: cp.Net, Actor: cp.Actor[1:], Critic: cp.Critic}))
	f.Add(encodeCheckpoint(f, checkpoint{Version: checkpointVersion, Net: cp.Net, Actor: cp.Actor}))
	f.Add(checkpointBytes(f, cfg, func(_, critic []float64) { critic[0] = math.Inf(-1) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		a3c, err := NewA3C(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantA, wantC := a3c.ParamVectors()
		loadErr := a3c.LoadCheckpoint(bytes.NewReader(data))
		gotA, gotC := a3c.ParamVectors()
		if loadErr != nil {
			assertVectorsBitwise(t, "actor after refusal", gotA, wantA)
			assertVectorsBitwise(t, "critic after refusal", gotC, wantC)
			return
		}
		var in checkpoint
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
			t.Fatalf("load accepted a stream that does not decode: %v", err)
		}
		if err := checkFinite(gotA, gotC); err != nil {
			t.Fatal(err)
		}
		assertVectorsBitwise(t, "actor", gotA, in.Actor)
		assertVectorsBitwise(t, "critic", gotC, in.Critic)
	})
}
