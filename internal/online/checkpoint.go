package online

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"minicost/internal/rl"
)

// Checkpoint files are the learner's crash-recovery and redeploy story:
// after every accepted fine-tune epoch the full trainer state (actor +
// critic) is written as learner-<seq>.ckpt through WriteAtomic, so a reader
// (or a crashed writer) never sees a torn file, and old checkpoints beyond
// the retention count are pruned. The sequence number is zero-padded so
// lexicographic directory order is chronological order; minicostd's
// -checkpoint boots serving (and, with -online, the fine-tune trainer, critic
// included) straight from the newest one.

const (
	checkpointPrefix = "learner-"
	checkpointSuffix = ".ckpt"
)

// checkpointName formats the on-disk name for epoch sequence seq.
func checkpointName(seq int64) string {
	return fmt.Sprintf("%s%010d%s", checkpointPrefix, seq, checkpointSuffix)
}

// WriteAtomic writes path through write into path+".tmp", fsyncs it and
// renames it over path, so a crash or a failed write leaves the previous
// file byte for byte as it was and no temp file behind. The learner's
// checkpoints and minicostd's -save both go through it.
func WriteAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// writeCheckpoint atomically persists the trainer's state to dir and prunes
// all but the newest `keep` checkpoints (keep <= 0 keeps everything).
// Returns the final path.
func writeCheckpoint(dir string, seq int64, keep int, tr *rl.A3C) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("online: checkpoint dir: %w", err)
	}
	final := filepath.Join(dir, checkpointName(seq))
	if err := WriteAtomic(final, tr.SaveCheckpoint); err != nil {
		return "", fmt.Errorf("online: checkpoint: %w", err)
	}
	if keep > 0 {
		if err := pruneCheckpoints(dir, keep); err != nil {
			return final, err
		}
	}
	return final, nil
}

// checkpointSeqOf parses the sequence number out of a checkpoint file name;
// ok is false for names that merely wear the prefix/suffix.
func checkpointSeqOf(name string) (int64, bool) {
	if !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
		return 0, false
	}
	s := strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), checkpointSuffix)
	seq, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listCheckpoints returns the checkpoint file names in dir, oldest first.
// os.ReadDir sorts by name, and the zero-padded sequence makes name order
// chronological. Files that wear the prefix/suffix but carry no parseable
// sequence are not checkpoints and are excluded, so a foreign file can
// neither shadow LatestCheckpoint nor be deleted by pruning.
func listCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("online: list checkpoints: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if _, ok := checkpointSeqOf(name); !ok {
			continue
		}
		names = append(names, name)
	}
	return names, nil
}

// maxCheckpointSeq returns the highest sequence number among the checkpoint
// files in dir (0 when the directory is empty or absent). A learner reusing
// a checkpoint directory across restarts seeds its sequence counter from
// this, so new checkpoints always sort after the prior run's — numbering
// below the retained files would make pruneCheckpoints (name-ordered)
// delete the freshly written checkpoint while keeping stale ones, and later
// sequences would silently overwrite prior-run history.
func maxCheckpointSeq(dir string) (int64, error) {
	names, err := listCheckpoints(dir)
	if err != nil {
		return 0, err
	}
	max := int64(0)
	for _, name := range names {
		if seq, ok := checkpointSeqOf(name); ok && seq > max {
			max = seq
		}
	}
	return max, nil
}

// pruneCheckpoints removes all but the newest `keep` checkpoints in dir.
func pruneCheckpoints(dir string, keep int) error {
	names, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	for i := 0; i+keep < len(names); i++ {
		if err := os.Remove(filepath.Join(dir, names[i])); err != nil {
			return fmt.Errorf("online: prune checkpoint: %w", err)
		}
	}
	return nil
}

// LatestCheckpoint returns the path of the newest learner checkpoint in
// dir, or "" when none exists.
func LatestCheckpoint(dir string) (string, error) {
	names, err := listCheckpoints(dir)
	if err != nil || len(names) == 0 {
		return "", err
	}
	return filepath.Join(dir, names[len(names)-1]), nil
}
