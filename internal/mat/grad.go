package mat

import (
	"fmt"

	"minicost/internal/par"
)

// This file holds the kernels behind the batched *gradient* pass
// (nn.BackwardBatch), all on the packed SIMD kernel at every batch length:
// the weight-gradient and input-gradient products with their operands read
// where they lie (AddMulTransATo, MulTo); a buffer-reusing transpose; and
// MulPackAccTo, the weight-gradient product of a transposed dY against a
// transposed pack.
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
