package mat

import (
	"fmt"

	"minicost/internal/par"
)

// This file holds the kernels behind the batched *gradient* pass
// (nn.BackwardBatch): for large batches the weight-gradient and
// input-gradient products on the packed SIMD kernel, their operands read
// where they lie (AddMulTransATo, MulTo); for short training rollouts an
// axpy-based weight-gradient product and a shared-dimension-outer
// input-gradient product; a buffer-reusing transpose; and MulPackAccTo, the
// weight-gradient product of a transposed dY against a transposed pack.
//
// The numerical contract matches gemm.go: every output element's shared-
// dimension accumulation runs sequentially in index order, seeded — for the
// accumulating variant — with the element's existing value. That is exactly
// the order in which nn's scalar test oracle adds one gradient term per
// sample, so batched gradients are bitwise identical to it.

// TransposeTo writes srcᵀ into dst, reusing dst's backing storage when
// large enough (pass nil to allocate); the returned matrix must be used in
// place of dst.
func TransposeTo(dst, src *Matrix) *Matrix {
	dst = EnsureShape(dst, src.Cols, src.Rows)
	for r := 0; r < src.Rows; r++ {
		for c, v := range src.Data[r*src.Cols : (r+1)*src.Cols] {
			dst.Data[c*dst.Cols+r] = v
		}
	}
	return dst
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

// InPlaceCols reports whether the backward products read a row-major
// operand of cols columns where it lies (MulTo, AddMulTransATo) rather than
// through a transposed pack (PackTransposeParTo): whether its rows are
// under 512 columns. The cutoff sits between the widths it was measured at
// (DESIGN §10). At the Quick network's 182 columns reading in place saves
// the packs and the dY transpose, and the harness's fit runs ≈10 % faster.
// At minicostd -online's 806 the in-place backward alone ran ≈10 % faster
// on 56 rows and ≈4 % slower on 112, but its training slices (boot64, E = 8)
// ran ≈2 % slower than packed, so that width packs. At the paper network's
// 3206 both products ran ≈40 % slower in place than packed, the packs
// included. Widths between 182 and 806 are not measured.
func InPlaceCols(cols int) bool { return cols < 512 }

// MulTo computes dst = a·b with b, a row-major K×N matrix, read where it
// lies: the packed kernel takes each 16-column tile of b row by row at b's
// width as its k-stride, and the ragged last tile through a zero-padded
// copy (packTail). It is Dense's input gradient dX = dY·W, W being Out×In.
// Every element's k-chain is ascending from +0 — the per-sample
// input-gradient loops' order — and the arithmetic is MulPackTransBBiasTo's
// with a nil bias against PackTransposeTo(b), bit for bit: a pack is only
// a copy. dst's storage is reused when large enough; the returned matrix
// must be used in place of dst. workers bounds the fan-out over row panels.
func MulTo(dst, a, b *Matrix, workers int) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = EnsureShape(dst, a.Rows, b.Cols)
	mulRows(dst, rowMajor(a), inPlace(b), b.Cols, b.Rows, nil, true, 0, a.Rows, workers)
	return dst
}

// AddMulTransATo accumulates dst += aᵀ·b (a is K×M, b is K×N, dst is M×N)
// with both operands read where they lie: aᵀ's row m is a's column m (row
// stride 1, k-stride M) and b's tiles are taken as MulTo takes them. It is
// Dense's weight gradient dW += dYᵀ·X on the row-major batches: every
// gradient element accumulates its per-sample terms in ascending row order
// seeded from its current value — the per-sample reference order — with no
// transpose of dY and no pack of X. workers bounds the fan-out over
// destination rows.
func AddMulTransATo(dst, a, b *Matrix, workers int) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: AddMulTransA shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: AddMulTransA dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	mulRows(dst, transposed(a), inPlace(b), b.Cols, b.Rows, nil, false, 0, dst.Rows, workers)
}

// MulPackAccTo accumulates dst += a·X from a packed right operand:
// dst[m][j] += Σ_k a[m][k]·X[k][j], with X pre-packed by PackTransposeTo
// (pb.Cols = X's columns, pb.K = X's rows = the shared dimension). Every
// element accumulates its terms in ascending k order seeded from its
// current value. It is Dense's weight gradient dW += dYᵀ·X where
// InPlaceCols says no, a being dY transposed (TransposeTo), bit for bit
// AddMulTransATo's. workers bounds the parallel fan-out over destination
// rows.
func MulPackAccTo(dst, a *Matrix, pb *PackedTransB, workers int) {
	if a.Cols != pb.K {
		panic(fmt.Sprintf("mat: MulPackAcc shape mismatch %dx%d · packed %dx%d", a.Rows, a.Cols, pb.K, pb.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != pb.Cols {
		panic(fmt.Sprintf("mat: MulPackAcc dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, pb.Cols))
	}
	accRows(dst, rowMajor(a), pb.rhs(), pb.K, workers)
}

// accRows runs mulPackAccBlock over all of dst's rows, sharded over workers
// when the product is large enough.
func accRows(dst *Matrix, a lhs, b rhs, k, workers int) {
	m, n := dst.Rows, dst.Cols
	if workers == 1 || m*k*n < gemmParallelFlops {
		mulPackAccBlock(dst.Data, a, b, n, k, 0, m)
		return
	}
	w := resolveWorkers(workers)
	par.ForBatched(m, parPanel(m, w, gemmMinPanel), w, func(lo, hi int) {
		mulPackAccBlock(dst.Data, a, b, n, k, lo, hi)
	})
}

// packAccCols is the width, in columns, of the destination blocks
// mulPackAccBlock walks: eight tiles, whose segments — at the weight
// gradient's 112-row shared dimension 112 kB — stay in L2 while every row
// group of the block passes over them.
const packAccCols = 8 * packLanes

// packAccRows is the row group mulPackAccBlock takes across one
// destination block: the eight rows of the AVX-512 kernel, whose
// shared-dimension stripe of a stays in L1 across the block's tiles.
const packAccRows = 8

// mulPackAccBlock accumulates a·B over k shared steps into dst rows
// [lo, hi) (row stride n). Blocks of packAccCols destination columns are
// the outer loop, the shared dimension blocked inside them (packKBlock,
// mulPackBlock's block length), then groups of packAccRows rows, then the
// block's tiles: each row group walks its destination rows contiguously, a
// block's tile segments stay in L2 across the groups, and every element
// still takes its k-blocks in ascending order (DESIGN §10). dotPackRows
// accumulates into the live destination rows, so no seeding pass is needed
// — the existing values are the seed. The ragged last tile goes through the
// same kernel a packRowPanel of rows at a time (packTail), likewise from
// each element's current value.
//
//minicost:hotpath
func mulPackAccBlock(dst []float64, a lhs, b rhs, n, k, lo, hi int) {
	full := n / packLanes * packLanes
	for c0 := 0; c0 < full; c0 += packAccCols {
		c1 := min(c0+packAccCols, full)
		for k0 := 0; k0 < k; k0 += packKBlock {
			k1 := min(k0+packKBlock, k)
			ak := a.at(0, k0)
			for r0 := lo; r0 < hi; r0 += packAccRows {
				r1 := min(r0+packAccRows, hi)
				for j := c0; j < c1; j += packLanes {
					dotPackRows(dst[j:], n, ak, b.at(j, k0), k1-k0, r0, r1, false)
				}
			}
		}
	}
	if full < n && k > 0 {
		for p0 := lo; p0 < hi; p0 += packRowPanel {
			packTail(dst[full:], n, n-full, a, b.at(full, 0), k, p0, min(p0+packRowPanel, hi), false)
		}
	}
}
