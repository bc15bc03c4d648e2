package main

import (
	"os"
	"path/filepath"
	"testing"

	"minicost"
	"minicost/internal/policy"
	"minicost/internal/pricing"
	"minicost/internal/rl"
)

// TestSaveRoundTrip: with -save, -split 1 trains on the whole trace — every
// file, every day, nothing held out — and the checkpoint -save writes loads,
// through the reader minicostd -checkpoint uses, into an agent that plans
// exactly like the trained one. Without -save the same split is refused: a
// report needs held-out days.
func TestSaveRoundTrip(t *testing.T) {
	full, err := loadTrace("", 24, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := splitTrace(full, 1, false); err == nil {
		t.Fatal("-split 1 without -save accepted: nothing is left to report on")
	}
	tr, serve, err := splitTrace(full, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if serve != nil || tr.Days != full.Days || tr.NumFiles() != full.NumFiles() {
		t.Fatalf("-split 1 -save trains on %d files x %d days (held out: %v), want all %d x %d",
			tr.NumFiles(), tr.Days, serve != nil, full.NumFiles(), full.Days)
	}
	cfg := minicost.DefaultConfig()
	cfg.TrainSteps = 300
	cfg.A3C.Net.Filters = 4
	cfg.A3C.Net.Hidden = 8
	sys, err := minicost.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Train(tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "agent.ckpt")
	if err := saveAgent(path, sys); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := rl.LoadAgent(f)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Net != sys.Agent().Net {
		t.Fatalf("loaded shape %+v, trained %+v", loaded.Net, sys.Agent().Net)
	}
	board, err := policy.Score(sys.Model(), tr, pricing.Hot, 0,
		policy.RL{Agent: sys.Agent()}, policy.RL{Agent: loaded})
	if err != nil {
		t.Fatal(err)
	}
	for i := range board[0].Plan {
		for d, tier := range board[0].Plan[i] {
			if board[1].Plan[i][d] != tier {
				t.Fatalf("file %d day %d: loaded agent plans %v, trained %v", i, d, board[1].Plan[i][d], tier)
			}
		}
	}
	if board[0].Total != board[1].Total {
		t.Fatalf("loaded agent bills %+v, trained %+v", board[1].Total, board[0].Total)
	}
}
