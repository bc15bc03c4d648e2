package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// stamp records where and how a result was taken, so a number can be
// traced back to a machine, a commit and a sizing.
type stamp struct {
	Time       string  `json:"time"`
	Commit     string  `json:"commit"` // "unknown" outside a git checkout
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	SetupReps  int     `json:"setup_reps"`
}

func newStamp(root string, rc *runCtx) *stamp {
	s := &stamp{
		Time:      time.Now().UTC().Format(time.RFC3339),
		Commit:    "unknown",
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		GoMaxProcs: rc.Procs, Seed: rc.Seed, Seconds: rc.Seconds, Traced: rc.Trace,
		SetupReps: rc.setupReps(),
	}
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		s.Commit = out
		if st, err := gitOutput(root, "status", "--porcelain"); err == nil {
			s.Dirty = st != ""
		}
	}
	return s
}

func gitOutput(root string, args ...string) (string, error) {
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
