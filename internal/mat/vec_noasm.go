//go:build !amd64 || purego

package mat

func sumsq8(g []float64, p *[8]float64) { sumsq8Generic(g, p) }

func conv4(y, x, w, b []float64, ol int, pass uint64) { conv4Generic(y, x, w, b, ol, pass) }

func relu(dst, x []float64) { reluGeneric(dst, x) }

func reluGrad(dst, dy, x []float64) { reluGradGeneric(dst, dy, x) }

// conv4Grad takes no filters: the caller's scalar loop takes them all.
func conv4Grad(gw, gb, dy, y, x []float64, ol int, pass uint64) int { return 0 }

func rmspropVec(dst, params, grads, msq []float64, scale, lr, decay, rem, eps float64) {
	rmspropGeneric(dst, params, grads, msq, scale, lr, decay, rem, eps)
}
