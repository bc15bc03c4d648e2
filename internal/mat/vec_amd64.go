//go:build !purego

package mat

// Assembly kernels (vec_amd64.s) with the same runtime AVX detection as the
// GEMM path. They vectorize across independent elements only and fuse
// exactly where the generic loops call math.FMA, so they are
// bitwise-identical to them; see vec.go.

//go:noescape
func rmspropAVX(dst, params, grads, msq []float64, scale, lr, decay, rem, eps float64)

//go:noescape
func sumsq8AVX(g []float64, p *[8]float64)

//go:noescape
func conv4x4AVX(y, x, w, b []float64, ol int, pass uint64)

//go:noescape
func conv4x4AVX512(y, x, w, b []float64, ol int, pass uint64)

//go:noescape
func reluAVX(dst, x []float64)

//go:noescape
func reluAVX512(dst, x []float64)

//go:noescape
func reluGradAVX(dst, dy, x []float64)

//go:noescape
func reluGradAVX512(dst, dy, x []float64)

//go:noescape
func conv4GradAVX(gw, gb, dy, y, x []float64, ol int, pass uint64)

func sumsq8(g []float64, p *[8]float64) {
	if haveAVX {
		sumsq8AVX(g, p)
		return
	}
	sumsq8Generic(g, p)
}

// conv4 runs the leading whole groups of four filters through the widest
// kernel whose vector the ol outputs fill — eight positions to a ZMM, four
// to a YMM — and the filters left, or every filter when no vector fits, on
// the portable loop. The kernels take the slices whole and count the groups
// themselves: re-slicing for them and a call for no filters left cost a
// quarter of a 16-filter row.
func conv4(y, x, w, b []float64, ol int, pass uint64) {
	switch {
	case haveAVX512 && ol >= 8:
		conv4x4AVX512(y, x, w, b, ol, pass)
	case haveAVX && ol >= 4:
		conv4x4AVX(y, x, w, b, ol, pass)
	default:
		conv4Generic(y, x, w, b, ol, pass)
		return
	}
	if n := len(b) &^ 3; n < len(b) {
		conv4Generic(y[n*ol:], x, w[4*n:], b[n:], ol, pass)
	}
}

// relu and reluGrad take the whole vectors of the widest tier through its
// kernel, which counts them itself, and a ragged tail through the portable
// loop.
func relu(dst, x []float64) {
	n := 0
	switch {
	case haveAVX512:
		reluAVX512(dst, x)
		n = len(x) &^ 7
	case haveAVX:
		reluAVX(dst, x)
		n = len(x) &^ 3
	}
	if n < len(x) {
		reluGeneric(dst[n:], x[n:])
	}
}

func reluGrad(dst, dy, x []float64) {
	n := 0
	switch {
	case haveAVX512:
		reluGradAVX512(dst, dy, x)
		n = len(x) &^ 7
	case haveAVX:
		reluGradAVX(dst, dy, x)
		n = len(x) &^ 3
	}
	if n < len(x) {
		reluGradGeneric(dst[n:], dy[n:], x[n:])
	}
}

func conv4Grad(gw, gb, dy, y, x []float64, ol int, pass uint64) int {
	n := len(gb) &^ 3
	if !haveAVX || n == 0 {
		return 0
	}
	conv4GradAVX(gw[:4*n], gb[:n], dy[:n*ol], y[:n*ol], x, ol, pass)
	return n
}

func rmspropVec(dst, params, grads, msq []float64, scale, lr, decay, rem, eps float64) {
	n := 0
	if haveAVX {
		// The assembly kernel runs whole 4-lane groups; the ragged tail
		// falls through to the scalar loop.
		n = len(grads) &^ 3
		if n > 0 {
			rmspropAVX(dst[:n], params[:n], grads[:n], msq[:n], scale, lr, decay, rem, eps)
		}
	}
	rmspropGeneric(dst[n:], params[n:], grads[n:], msq[n:], scale, lr, decay, rem, eps)
}
