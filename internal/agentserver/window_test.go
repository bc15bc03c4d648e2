package agentserver

import "minicost/internal/mdp"

// windowInto copies out the decision window a plan row of slot is encoded
// from: it runs the row's own path (featureInto, which fills the shard's
// window through mdp.State.FillHistory) and reads the window back, so the
// window tests pin what serving packs, not a copy of it.
func (sh *shard) windowInto(slot int32, rs, ws []float64) {
	sh.featureInto(slot, make([]float64, mdp.FeatureDim(sh.histLen)))
	copy(rs, sh.window.ReadHistory)
	copy(ws, sh.window.WriteHistory)
}
