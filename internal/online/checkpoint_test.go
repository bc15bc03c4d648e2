package online

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minicost/internal/costmodel"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rl"
)

// TestCheckpointRoundTripMidFineTune is the restore guarantee: a checkpoint
// written mid-fine-tune must restore both the trainer (actor + critic) and a
// serving agent (rl.LoadAgent reads the same format) to
// bitwise-identical weights, and the atomic-rename protocol must leave no
// temp file behind.
func TestCheckpointRoundTripMidFineTune(t *testing.T) {
	cfg := testA3CConfig(21)
	tr, err := rl.NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.New(pricing.Azure())
	src, err := rl.NewTraceSource(model, testTrace(t, 6, 10, 3, false), cfg.Net.HistLen, mdp.DefaultReward(), pricing.Hot)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.FineTune(src, 128); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path, err := writeCheckpoint(dir, 3, 5, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := filepath.Base(path); got != checkpointName(3) {
		t.Fatalf("checkpoint name %q, want %q", got, checkpointName(3))
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	re, err := rl.NewA3C(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.LoadCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	wantA, wantC := tr.ParamVectors()
	gotA, gotC := re.ParamVectors()
	bitwiseEq(t, "restored actor", gotA, wantA)
	bitwiseEq(t, "restored critic", gotC, wantC)

	agent, err := rl.LoadAgent(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEq(t, "serving actor", agent.ParamVector(), tr.Snapshot().ParamVector())

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind", e.Name())
		}
	}
}

// TestWriteAtomicFailedWriteKeepsPrevious: a write that fails halfway
// through leaves the file it would have replaced byte for byte as it was,
// and no temp file behind — minicostd -checkpoint x -save x included.
func TestWriteAtomicFailedWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "agent.ckpt")
	prev := []byte("the previous checkpoint")
	if err := os.WriteFile(path, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a new")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic error %v, want the writer's", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prev) {
		t.Fatalf("file after a failed write = %q, want %q", got, prev)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory after a failed write holds %d entries, want only %s", len(entries), path)
	}

	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("file after a good write = %q (%v), want %q", got, err, "new")
	}
}

// TestCheckpointRetention writes a sequence of checkpoints with keep=3 and
// asserts only the newest three survive, in chronological name order, with
// LatestCheckpoint pointing at the last one.
func TestCheckpointRetention(t *testing.T) {
	tr := testTrainer(t, 5)
	dir := t.TempDir()
	for seq := int64(1); seq <= 7; seq++ {
		if _, err := writeCheckpoint(dir, seq, 3, tr); err != nil {
			t.Fatal(err)
		}
	}
	names, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{checkpointName(5), checkpointName(6), checkpointName(7)}
	if len(names) != len(want) {
		t.Fatalf("retained %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("retained %v, want %v", names, want)
		}
	}
	latest, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != filepath.Join(dir, checkpointName(7)) {
		t.Fatalf("latest = %q", latest)
	}
}

// TestLatestCheckpointMissingDir: a never-created directory is "no
// checkpoint yet", not an error (minicostd probes before the first run).
func TestLatestCheckpointMissingDir(t *testing.T) {
	latest, err := LatestCheckpoint(filepath.Join(t.TempDir(), "nope"))
	if err != nil || latest != "" {
		t.Fatalf("got (%q, %v), want empty, nil", latest, err)
	}
}

// TestCheckpointSeqResumesAcrossRestart pins the restart contract for a
// reused checkpoint directory: a new learner must continue numbering after
// the prior run's retained files, so its first checkpoint sorts newest —
// numbering from zero would make name-ordered pruning delete the fresh
// checkpoint while keeping stale ones.
func TestCheckpointSeqResumesAcrossRestart(t *testing.T) {
	tr := testTrainer(t, 7)
	dir := t.TempDir()
	for seq := int64(5); seq <= 7; seq++ {
		if _, err := writeCheckpoint(dir, seq, 3, tr); err != nil {
			t.Fatal(err)
		}
	}
	// A stray non-checkpoint file wearing the prefix must not poison the scan.
	if err := os.WriteFile(filepath.Join(dir, checkpointPrefix+"notes"+checkpointSuffix), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := maxCheckpointSeq(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("maxCheckpointSeq = %d, want 7", got)
	}
	if got, err := maxCheckpointSeq(filepath.Join(dir, "nope")); err != nil || got != 0 {
		t.Fatalf("missing dir: (%d, %v), want (0, nil)", got, err)
	}

	// Writing the next checkpoint at seq+1 keeps chronology: it survives
	// pruning and LatestCheckpoint points at it.
	if _, err := writeCheckpoint(dir, got+1, 3, tr); err != nil {
		t.Fatal(err)
	}
	latest, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != filepath.Join(dir, checkpointName(8)) {
		t.Fatalf("latest after restart-write = %q, want seq 8", latest)
	}
}
