//go:build !amd64 || purego

package mat

// laneKernels: without SIMD the 8-lane forward kernel's transposed gather
// only adds overhead, so the short-batch forward falls back.
const laneKernels = false

func axpy(dst, x []float64, alpha float64) { axpyGeneric(dst, x, alpha) }

func dotXT8(w, xt, acc []float64) { dotXT8Generic(w, xt, acc) }

func dotXT8x4(w []float64, in int, xt, acc []float64) { dotXT8x4Generic(w, in, xt, acc) }

func sumsq8(g []float64, p *[8]float64) { sumsq8Generic(g, p) }

func scal(dst []float64, s float64) { scalGeneric(dst, s) }

func conv4(y, x, w, b []float64, ol int, pass uint64) { conv4Generic(y, x, w, b, ol, pass) }

// conv4Grad takes no filters: the caller's scalar loop takes them all.
func conv4Grad(gw, gb, dy, y, x []float64, ol int, pass uint64) int { return 0 }

func rmspropVec(dst, params, grads, msq []float64, lr, decay, rem, eps float64) {
	rmspropGeneric(dst, params, grads, msq, lr, decay, rem, eps)
}
