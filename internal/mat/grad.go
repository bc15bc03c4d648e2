package mat

import (
	"fmt"

	"minicost/internal/par"
)

// This file holds the kernels behind the batched *gradient* pass
// (nn.BackwardBatch): a buffer-reusing transpose, accumulating products for
// weight gradients (one on the packed kernel for large batches, one
// transpose-free for short training rollouts), a shared-dimension-outer
// product for short-batch input gradients, and a packer that reads a matrix
// transposed so the large-batch input-gradient GEMM can run on the packed
// SIMD kernel without materializing Wᵀ first.
//
// The numerical contract matches gemm.go: every output element's shared-
// dimension accumulation runs sequentially in index order, seeded — for the
// accumulating variant — with the element's existing value. That is exactly
// the order in which the single-sample nn backward loops add one gradient
// term per sample, so batched gradients are bitwise identical to the
// per-sample reference.

// TransposeParTo writes srcᵀ into dst, reusing dst's backing storage when
// large enough (pass nil to allocate); the returned matrix must be used in
// place of dst. Source rows are sharded over workers; each source row writes
// one strided destination column, so shards touch disjoint elements and the
// result is identical at any worker count. Small matrices transpose serially
// regardless of workers.
func TransposeParTo(dst, src *Matrix, workers int) *Matrix {
	dst = EnsureShape(dst, src.Cols, src.Rows)
	// The closure is built only on the parallel branch: a func literal handed
	// to ForBatched escapes, and the workers=1 path must stay allocation-free.
	if workers == 1 || len(src.Data) < packParMin {
		transposeRows(dst, src, 0, src.Rows)
		return dst
	}
	w := resolveWorkers(workers)
	par.ForBatched(src.Rows, parPanel(src.Rows, w, gemmMinPanel), w, func(lo, hi int) {
		transposeRows(dst, src, lo, hi)
	})
	return dst
}

// transposeRows writes source rows [lo, hi) into their strided destination
// columns; shards touch disjoint elements.
//
//minicost:hotpath
func transposeRows(dst, src *Matrix, lo, hi int) {
	for r := lo; r < hi; r++ {
		row := src.Data[r*src.Cols : (r+1)*src.Cols]
		for c, v := range row {
			dst.Data[c*dst.Cols+r] = v
		}
	}
}

// MulTransAAccTo accumulates dst += aᵀ·b in place (a is K×M, b is K×N, dst
// is M×N) without materializing the transpose — the weight-gradient product
// dW += dYᵀ·X taken directly on the row-major batch matrices. For each dst
// row the K samples stream past while the row accumulator stays
// cache-resident, so for the short training batches this kernel serves
// (K = NSteps) the only full-size memory traffic is dst itself. Each
// element's K-chain runs in ascending sample order seeded with the
// element's current value — the per-sample accumulation order — and
// distinct dst rows are independent, so the parallel fan-out splits on
// them.
func MulTransAAccTo(dst, a, b *Matrix, workers int) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulTransAAcc shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransAAcc dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if workers == 1 || a.Rows*a.Cols*b.Cols < gemmParallelFlops {
		mulTransAAccBlock(dst, a, b, 0, dst.Rows)
		return
	}
	w := resolveWorkers(workers)
	par.ForBatched(dst.Rows, parPanel(dst.Rows, w, gemmMinPanel), w, func(lo, hi int) {
		mulTransAAccBlock(dst, a, b, lo, hi)
	})
}

// gradColTile is the column-stripe width for the short-batch gradient
// kernels: 256 float64s keep one stripe of all NSteps sample rows (the
// operand revisited across the long output dimension) resident in L1 instead
// of re-streaming it from L2 on every pass. Striping only partitions
// independent output elements, so accumulation order is untouched.
const gradColTile = 256

// mulTransAAccBlock fills dst rows [lo, hi); the sample loop is inside the
// row loop so every element accumulates its samples in ascending order, and
// the column stripes keep the revisited b stripe cache-resident while dst
// streams through exactly once.
//
//minicost:hotpath
func mulTransAAccBlock(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for c0 := 0; c0 < n; c0 += gradColTile {
		c1 := c0 + gradColTile
		if c1 > n {
			c1 = n
		}
		for m := lo; m < hi; m++ {
			drow := dst.Data[m*n+c0 : m*n+c1]
			for k := 0; k < a.Rows; k++ {
				g := a.Data[k*a.Cols+m]
				axpy(drow, b.Data[k*n+c0:k*n+c1], g)
			}
		}
	}
}

// MulKOuterTo computes dst = a·b with the shared dimension as the outermost
// loop: each b row streams through the cache exactly once while the whole
// dst block stays resident — the right trade for short-batch products where
// dst has only NSteps rows but b is a full weight matrix (Dense's training
// input gradient dX = dY·W). Every element's k-chain is ascending and
// seeded at zero, matching the per-sample input-gradient loops. The
// parallel fan-out splits b's columns, which preserves the k-outer order
// inside each stripe.
func MulKOuterTo(dst, a, b *Matrix, workers int) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulKOuter shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = EnsureShape(dst, a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	if workers == 1 || a.Rows*a.Cols*b.Cols < gemmParallelFlops {
		mulKOuterBlock(dst, a, b, 0, b.Cols)
		return dst
	}
	// Column stripes stay at least gradColTile wide so the cache tiling
	// inside each stripe is unchanged; more workers just get more stripes.
	w := resolveWorkers(workers)
	stripe := (b.Cols + 2*w - 1) / (2 * w)
	if stripe < gradColTile {
		stripe = gradColTile
	}
	par.ForBatched(b.Cols, stripe, w, func(lo, hi int) {
		mulKOuterBlock(dst, a, b, lo, hi)
	})
	return dst
}

// mulKOuterBlock accumulates dst columns [lo, hi) with the shared dimension
// outermost inside each column stripe: the dst stripe stays cache-resident
// across the whole k sweep while b's stripe streams through once, instead of
// every k pass resweeping the full dst width out of L2.
//
//minicost:hotpath
func mulKOuterBlock(dst, a, b *Matrix, lo, hi int) {
	for c0 := lo; c0 < hi; c0 += gradColTile {
		c1 := c0 + gradColTile
		if c1 > hi {
			c1 = hi
		}
		for k := 0; k < b.Rows; k++ {
			brow := b.Data[k*b.Cols+c0 : k*b.Cols+c1]
			for r := 0; r < a.Rows; r++ {
				v := a.Data[r*a.Cols+k]
				axpy(dst.Data[r*dst.Cols+c0:r*dst.Cols+c1], brow, v)
			}
		}
	}
}

// MulPackAccTo accumulates dst += a·X from a packed right operand:
// dst[m][j] += Σ_k a[m][k]·X[k][j], with X pre-packed by PackTransposeTo
// (pb.Cols = X's columns, pb.K = X's rows = the shared dimension). It is the
// large-batch weight-gradient kernel: with a = dYᵀ and X the retained input
// batch, dst is dW and the shared dimension is the batch row index, so every
// gradient element accumulates its per-sample terms in ascending row order
// seeded from its current value — the per-sample reference order — while the
// inner kernel runs one destination column per SIMD lane exactly like the
// packed forward GEMM. Versus the unpacked tiled product this converts the
// k-loads of one destination tile from full-width row strides into
// contiguous packed segments, and it replaces the batch-matrix transpose a
// caller would otherwise materialize with a cache-friendly pack of the same
// traffic. workers bounds the parallel fan-out over destination rows.
func MulPackAccTo(dst, a *Matrix, pb *PackedTransB, workers int) {
	if a.Cols != pb.K {
		panic(fmt.Sprintf("mat: MulPackAcc shape mismatch %dx%d · packed %dx%d", a.Rows, a.Cols, pb.K, pb.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != pb.Cols {
		panic(fmt.Sprintf("mat: MulPackAcc dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, pb.Cols))
	}
	if workers == 1 || a.Rows*a.Cols*pb.Cols < gemmParallelFlops {
		mulPackAccBlock(dst, a, pb, 0, a.Rows)
		return
	}
	w := resolveWorkers(workers)
	par.ForBatched(a.Rows, parPanel(a.Rows, w, gemmMinPanel), w, func(lo, hi int) {
		mulPackAccBlock(dst, a, pb, lo, hi)
	})
}

// mulPackAccBlock accumulates into dst rows [lo, hi) from the packed
// operand. Column tiles are the outer loop with the shared dimension
// blocked inside them (packKBlock, mulPackBlock's block length) so the revisited
// segment stays cache-hot; dotPackRows accumulates into the live destination
// rows, so no seeding pass is needed — the existing values are the seed.
// The ragged last tile goes through the same kernel a packRowPanel of rows
// at a time (packTail), likewise from each element's current value.
//
//minicost:hotpath
func mulPackAccBlock(dst, a *Matrix, pb *PackedTransB, lo, hi int) {
	n, k := pb.Cols, pb.K
	full := n / packLanes * packLanes
	for j := 0; j < full; j += packLanes {
		tile := pb.Data[j*k : (j+packLanes)*k]
		for k0 := 0; k0 < k; k0 += packKBlock {
			k1 := k0 + packKBlock
			if k1 > k {
				k1 = k
			}
			seg := tile[k0*packLanes : k1*packLanes]
			dotPackRows(dst.Data, n, j, a.Data, k, k0, k1, seg, lo, hi)
		}
	}
	if full < n {
		for p0 := lo; p0 < hi; p0 += packRowPanel {
			packTail(dst, a, pb, p0, min(p0+packRowPanel, hi))
		}
	}
}
