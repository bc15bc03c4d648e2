package nn

import (
	"fmt"

	"minicost/internal/mat"
)

// Optimizer applies a gradient step to a flat parameter vector. The trainer
// in internal/rl keeps the global network as one flat vector per network,
// so optimizers work at that level rather than per layer. RMSProp is the
// one implementation training uses; tests substitute others through the
// interface.
type Optimizer interface {
	// Step updates params in place from grads (both flat, same length).
	Step(params, grads []float64)
	// LearningRate reports the current base learning rate.
	LearningRate() float64
	// SetLearningRate changes the base learning rate (Fig. 9 sweeps it).
	SetLearningRate(lr float64)
}

// RMSProp is the optimizer the A3C paper trains with.
type RMSProp struct {
	LR      float64
	Decay   float64 // squared-gradient EMA decay, typically 0.99
	Epsilon float64
	msq     []float64
}

// NewRMSProp returns RMSProp with the A3C defaults.
func NewRMSProp(lr float64) *RMSProp {
	return &RMSProp{LR: lr, Decay: 0.99, Epsilon: 1e-8}
}

// Step implements Optimizer. The elementwise update runs through
// mat.RMSPropStep, whose vectorized kernel keeps each element's scalar
// operation sequence (packed IEEE mul/add/sqrt/divide are correctly rounded),
// so results stay bitwise identical to the plain loop — this optimizer is
// where most non-GEMM update time goes on a 400k-parameter network.
func (r *RMSProp) Step(params, grads []float64) {
	checkLens(params, grads)
	if r.msq == nil {
		r.msq = make([]float64, len(params))
	}
	mat.RMSPropStep(params, params, grads, r.msq, r.LR, r.Decay, r.Epsilon)
}

// LearningRate implements Optimizer.
func (r *RMSProp) LearningRate() float64 { return r.LR }

// SetLearningRate implements Optimizer.
func (r *RMSProp) SetLearningRate(lr float64) { r.LR = lr }

func checkLens(params, grads []float64) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("nn: optimizer params %d vs grads %d", len(params), len(grads)))
	}
}
