package experiments

import (
	"testing"

	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/rng"
)

// TestBatchedInferenceEquivalentAcrossPaperWidths pins the batched engine to
// one-row batches — the shape nn holds bitwise to its scalar oracle, and the
// one Decide runs — at every network width the paper sweeps (Fig. 11): each
// row of a 33-row ForwardBatch must reproduce that sample's one-row forward
// bitwise and DecideBatch must reproduce Decide exactly, on randomly
// initialised networks at the paper's 14-day history window.
func TestBatchedInferenceEquivalentAcrossPaperWidths(t *testing.T) {
	const histLen = 14
	const batch = 33
	for wi, width := range PaperWidths {
		cfg := rl.NetConfig{HistLen: histLen, Filters: width, Kernel: 4, Stride: 1, Hidden: width}
		r := rng.New(uint64(1000 + wi))
		net := cfg.BuildActor(r)
		agent := rl.NewAgent(cfg, net)

		states := make([]mdp.State, batch)
		x := mat.New(batch, mdp.FeatureDim(histLen))
		for i := range states {
			states[i] = mdp.State{
				ReadHistory:  make([]float64, histLen),
				WriteHistory: make([]float64, histLen),
				SizeGB:       0.01 + r.Float64()*10,
				Tier:         pricing.Tier(r.Intn(pricing.NumTiers)),
			}
			for d := 0; d < histLen; d++ {
				states[i].ReadHistory[d] = r.Float64() * 5000
				states[i].WriteHistory[d] = r.Float64() * 500
			}
			states[i].FeaturesInto(x.Row(i))
		}

		// Bitwise forward equivalence against one-row batches, the shape nn
		// holds to its scalar oracle. The batch's output is copied out first:
		// every ForwardBatch overwrites the network's output buffer.
		yb := mat.New(batch, mdp.NumActions)
		copy(yb.Data, net.ForwardBatch(x, 0).Data)
		one := &mat.Matrix{}
		for i := range states {
			x.SliceRows(one, i, i+1)
			single := net.ForwardBatch(one, 1).Row(0)
			row := yb.Row(i)
			if len(single) != len(row) {
				t.Fatalf("width %d: batch row width %d, single %d", width, len(row), len(single))
			}
			for j := range single {
				if row[j] != single[j] {
					t.Fatalf("width %d state %d logit %d: batched %v != single %v",
						width, i, j, row[j], single[j])
				}
			}
		}

		// Decision equivalence.
		tiers := make([]pricing.Tier, batch)
		agent.DecideBatch(x, tiers, 0)
		for i := range states {
			if want := agent.Decide(&states[i]); tiers[i] != want {
				t.Fatalf("width %d state %d: DecideBatch %v, Decide %v", width, i, tiers[i], want)
			}
		}
	}
}
