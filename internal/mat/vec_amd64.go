//go:build !purego

package mat

// Assembly kernels (vec_amd64.s) with the same runtime AVX detection as the
// GEMM path. Both kernels vectorize across independent elements only, so
// they are bitwise-identical to the generic loops; see vec.go.

//go:noescape
func axpyAVX(dst, x []float64, alpha float64)

//go:noescape
func rmspropAVX(dst, params, grads, msq []float64, lr, decay, rem, eps float64)

//go:noescape
func dotXT8AVX(w, xt, acc []float64)

//go:noescape
func dotXT8x4AVX(w []float64, in int, xt, acc []float64)

//go:noescape
func sumsq8AVX(g []float64, p *[8]float64)

//go:noescape
func scalAVX(dst []float64, s float64)

//go:noescape
func conv4AVX(y, x, w, b []float64, ol int, pass uint64)

//go:noescape
func conv4GradAVX(gw, gb, dy, y, x []float64, ol int, pass uint64)

// laneKernels reports whether the 8-lane short-batch forward kernel is
// worth taking: without SIMD its transposed gather only adds overhead.
var laneKernels = haveAVX

func axpy(dst, x []float64, alpha float64) {
	if haveAVX && len(dst) >= 4 {
		axpyAVX(dst, x, alpha)
		return
	}
	axpyGeneric(dst, x, alpha)
}

func dotXT8(w, xt, acc []float64) {
	if haveAVX {
		dotXT8AVX(w, xt, acc)
		return
	}
	dotXT8Generic(w, xt, acc)
}

func dotXT8x4(w []float64, in int, xt, acc []float64) {
	if haveAVX {
		dotXT8x4AVX(w, in, xt, acc)
		return
	}
	dotXT8x4Generic(w, in, xt, acc)
}

func sumsq8(g []float64, p *[8]float64) {
	if haveAVX {
		sumsq8AVX(g, p)
		return
	}
	sumsq8Generic(g, p)
}

func scal(dst []float64, s float64) {
	if haveAVX && len(dst) >= 4 {
		scalAVX(dst, s)
		return
	}
	scalGeneric(dst, s)
}

func conv4(y, x, w, b []float64, ol int, pass uint64) {
	if haveAVX && ol >= 4 {
		conv4AVX(y, x, w, b, ol, pass)
		return
	}
	conv4Generic(y, x, w, b, ol, pass)
}

func conv4Grad(gw, gb, dy, y, x []float64, ol int, pass uint64) int {
	n := len(gb) &^ 3
	if !haveAVX || n == 0 {
		return 0
	}
	conv4GradAVX(gw[:4*n], gb[:n], dy[:n*ol], y[:n*ol], x, ol, pass)
	return n
}

func rmspropVec(dst, params, grads, msq []float64, lr, decay, rem, eps float64) {
	n := 0
	if haveAVX {
		// The assembly kernel runs whole 4-lane groups; the ragged tail
		// falls through to the scalar loop.
		n = len(grads) &^ 3
		if n > 0 {
			rmspropAVX(dst[:n], params[:n], grads[:n], msq[:n], lr, decay, rem, eps)
		}
	}
	rmspropGeneric(dst[n:], params[n:], grads[n:], msq[n:], lr, decay, rem, eps)
}
