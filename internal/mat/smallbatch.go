package mat

// This file holds the short-batch forward kernel: Y = X·Wᵀ + bias for
// batches too small to amortize the packed-weight pipeline (training
// rollouts of NSteps rows). A plain row-per-row dot product cannot
// vectorize — each output element's shared-dimension chain must stay
// sequential — but distinct batch rows are independent, so the kernel
// gathers the batch into an 8-lane transposed scratch (lane r of word i
// holds X[r][i]) and lets each vector lane carry one row's chain. Every
// element still accumulates bias-seeded, ascending in i, bitwise identical
// to MulTransBBiasTo and to nn's scalar test oracle.

// laneWidth is the row capacity of the lane-transposed scratch: two 4-wide
// vector registers per output.
const laneWidth = 8

// MulTransBBiasXTTo computes dst = a·bᵀ + bias with the same shape and
// bitwise contract as MulTransBBiasTo, routed through the 8-lane kernel
// when the platform has one (otherwise it falls back). xt is the reused
// lane-transposed scratch (pass nil to allocate); the returned matrices
// must be used in place of dst and xt. The kernel runs serially — short
// batches are below any useful parallel fan-out — so workers only applies
// on the fallback path.
func MulTransBBiasXTTo(dst, xt, a, b *Matrix, bias []float64, workers int) (*Matrix, *Matrix) {
	if !laneKernels {
		return MulTransBBiasTo(dst, a, b, bias, workers), xt
	}
	return mulLaneForward(dst, xt, a, b, bias)
}

// mulLaneForward is the lane-kernel body behind MulTransBBiasXTTo, split
// out so tests can pin it against the reference regardless of platform
// dispatch.
func mulLaneForward(dst, xt, a, b *Matrix, bias []float64) (*Matrix, *Matrix) {
	in, out := a.Cols, b.Rows
	if b.Cols != in {
		panic("mat: MulTransBBiasXT shape mismatch")
	}
	if bias != nil && len(bias) != out {
		panic("mat: MulTransBBiasXT bias length mismatch")
	}
	dst = EnsureShape(dst, a.Rows, out)
	xt = EnsureShape(xt, in, laneWidth)
	var acc [4 * laneWidth]float64
	for g := 0; g < a.Rows; g += laneWidth {
		gn := a.Rows - g
		if gn > laneWidth {
			gn = laneWidth
		}
		// Gather rows g..g+gn-1 lane-major; unused lanes are zeroed so the
		// kernel never reads stale values (their results are discarded).
		for i := 0; i < in; i++ {
			lrow := xt.Data[i*laneWidth : (i+1)*laneWidth]
			for r := 0; r < gn; r++ {
				lrow[r] = a.Data[(g+r)*in+i]
			}
			for r := gn; r < laneWidth; r++ {
				lrow[r] = 0
			}
		}
		o := 0
		for ; o+4 <= out; o += 4 {
			seedLanes(acc[:], bias, o, 4)
			dotXT8x4(b.Data[o*in:(o+4)*in], in, xt.Data, acc[:])
			for j := 0; j < 4; j++ {
				for r := 0; r < gn; r++ {
					dst.Data[(g+r)*out+o+j] = acc[j*laneWidth+r]
				}
			}
		}
		for ; o < out; o++ {
			seedLanes(acc[:laneWidth], bias, o, 1)
			dotXT8(b.Data[o*in:(o+1)*in], xt.Data, acc[:laneWidth])
			for r := 0; r < gn; r++ {
				dst.Data[(g+r)*out+o] = acc[r]
			}
		}
	}
	return dst, xt
}

// seedLanes fills count lane groups of acc with the bias of outputs
// o..o+count-1 (zero when bias is nil) — the same seed the reference dot
// product starts from.
func seedLanes(acc, bias []float64, o, count int) {
	for j := 0; j < count; j++ {
		v := 0.0
		if bias != nil {
			v = bias[o+j]
		}
		for r := 0; r < laneWidth; r++ {
			acc[j*laneWidth+r] = v
		}
	}
}
