package mat

import (
	"fmt"
	"math"
	"testing"

	"minicost/internal/rng"
)

// TestSumSquaresMatchesReferenceBitwise pins the dispatched 8-chain norm
// against a scalar recomputation of the same chain structure across tail
// lengths.
func TestSumSquaresMatchesReferenceBitwise(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{0, 1, 3, 7, 8, 9, 16, 100, 3206} {
		g := make([]float64, n)
		for i := range g {
			g[i] = r.Normal()
		}
		var p [8]float64
		sumsq8Generic(g[:n&^7], &p)
		want := ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
		for _, v := range g[n&^7:] {
			want += float64(v * v)
		}
		if got := SumSquares(g); got != want {
			t.Fatalf("n=%d: SumSquares = %v, want %v (not bitwise equal)", n, got, want)
		}
	}
}

// TestRMSPropStepBitwise pins RMSPropStep, at every kernel tier, to what the
// step was before the clip scale moved into it: the gradient scaled in place
// — one rounded product per element — then the scalar update expression,
// every product rounded on its own. Sustained steps over ragged lengths, so
// the vector body and the peeled tail both accumulate moments, at scale 1
// (no clip) and below it, with an aliased-dst pass mirroring the in-place
// optimizer use; grads must come out as they went in.
func TestRMSPropStepBitwise(t *testing.T) {
	for _, tier := range kernelTiers() {
		for _, scale := range []float64{1, 0.37} {
			t.Run(fmt.Sprintf("%s/scale=%v", tier, scale), func(t *testing.T) {
				forceTier(t, tier)
				testRMSPropStep(t, scale)
			})
		}
	}
}

func testRMSPropStep(t *testing.T, scale float64) {
	r := rng.New(22)
	// float64 variables, not untyped constants: the reference below must
	// compute 1-decay with the same float64 subtraction the kernel uses.
	lr, decay, eps := 1e-3, 0.99, 1e-8
	for _, n := range []int{1, 2, 3, 4, 5, 8, 11, 203, 1025} {
		params := make([]float64, n)
		for i := range params {
			params[i] = r.NormalMS(0, 1)
		}
		wantP := append([]float64(nil), params...)
		wantM := make([]float64, n)
		gotM := make([]float64, n)
		grads := make([]float64, n)
		dst := make([]float64, n)
		for step := 0; step < 9; step++ {
			for i := range grads {
				grads[i] = r.NormalMS(0, 1)
			}
			scaled := append([]float64(nil), grads...)
			for i := range scaled {
				scaled[i] *= scale
			}
			rem := 1 - decay
			for i, g := range scaled {
				m := float64(decay*wantM[i]) + float64(rem*g*g)
				wantM[i] = m
				wantP[i] = wantP[i] - lr*g/(math.Sqrt(m)+eps)
			}
			in := append([]float64(nil), grads...)
			if step%2 == 0 {
				RMSPropStep(dst, params, grads, gotM, scale, lr, decay, eps)
				copy(params, dst)
			} else {
				RMSPropStep(params, params, grads, gotM, scale, lr, decay, eps)
			}
			for i := range wantP {
				if math.Float64bits(grads[i]) != math.Float64bits(in[i]) {
					t.Fatalf("len %d step %d: grad %d changed", n, step, i)
				}
				if params[i] != wantP[i] {
					t.Fatalf("len %d step %d: param %d = %v, want %v (not bitwise equal)",
						n, step, i, params[i], wantP[i])
				}
				if gotM[i] != wantM[i] {
					t.Fatalf("len %d step %d: msq %d = %v, want %v (not bitwise equal)",
						n, step, i, gotM[i], wantM[i])
				}
			}
		}
	}
}

func TestRMSPropStepLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	RMSPropStep(make([]float64, 4), make([]float64, 4), make([]float64, 3), make([]float64, 4), 1, 1e-3, 0.99, 1e-8)
}
