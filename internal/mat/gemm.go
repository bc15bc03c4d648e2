package mat

import (
	"fmt"

	"minicost/internal/par"
)

// This file is the GEMM kernel behind the batched inference engine
// (nn.ForwardBatch): blocked, cache-tiled products with reusable output
// buffers and a transposed-B variant matching how nn stores weights
// (row o of the weight matrix holds output o's weights, i.e. B is already
// transposed for Y = X·Wᵀ).
//
// Numerical contract: for every output element the inner (k) accumulation
// runs sequentially over the full shared dimension, in index order, seeded
// with the bias when one is given. That is exactly the operation order of
// nn's scalar test oracle for a Dense layer (one sample's W·x + b), so the
// batched path is *bitwise* identical to it, whatever the batch length —
// nn's equivalence tests rely on this. Blocking therefore tiles only the
// output rows and columns (which reorders independent elements, never an
// accumulation) and unrolled/FMA-style k-splitting is deliberately avoided.

// Tile sizes: a colTile of B rows is kept hot in cache while a rowTile of A
// rows streams over it. With float64 data a 8×k B tile stays L2-resident up
// to k ≈ 16k; rowTile bounds the chunk size handed to one worker.
const (
	gemmRowTile = 64
	gemmColTile = 8
)

// gemmParallelFlops is the approximate flop count above which the kernels
// fan out across workers; below it goroutine overhead dominates.
const gemmParallelFlops = 1 << 17

// EnsureShape returns a rows×cols matrix, reusing m's backing storage when
// it has sufficient capacity (contents are then unspecified, not zeroed);
// otherwise it allocates. It is the buffer-reuse primitive the batched
// layers use to keep steady-state inference allocation-free.
func EnsureShape(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mat: EnsureShape negative dimension")
	}
	if m != nil && cap(m.Data) >= rows*cols {
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:rows*cols]
		return m
	}
	return New(rows, cols)
}

// MulTransBBiasTo computes dst[r][c] = bias[c] + Σ_k a[r][k]·b[c][k] (a nil
// bias means zero), the fused GEMM+bias the Dense batched path uses, into a
// reusable buffer: dst's backing array is reused when large enough, and the
// returned matrix must be used in place of dst. workers bounds the parallel
// fan-out (1 forces serial, <= 0 selects the default); small products always
// run serially. It is MulTransBBiasXTTo's fallback without lane kernels and
// the oracle the packed and lane kernels are held to. See the package
// comment above for the exactness contract.
func MulTransBBiasTo(dst, a, b *Matrix, bias []float64, workers int) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransB shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias != nil && len(bias) != b.Rows {
		panic(fmt.Sprintf("mat: MulTransB bias len %d, want %d", len(bias), b.Rows))
	}
	dst = EnsureShape(dst, a.Rows, b.Rows)
	if workers == 1 || a.Rows*a.Cols*b.Rows < gemmParallelFlops {
		mulTransBBlock(dst, a, b, bias, 0, a.Rows)
		return dst
	}
	w := resolveWorkers(workers)
	par.ForBatched(a.Rows, parPanel(a.Rows, w, gemmMinPanel), w, func(lo, hi int) {
		mulTransBBlock(dst, a, b, bias, lo, hi)
	})
	return dst
}

// mulTransBBlock fills output rows [lo, hi), tiling the B rows so each tile
// stays cache-resident while the A rows stream past. Within a tile, four
// output columns are computed together with four independent accumulators:
// each element's own accumulation is still bias-seeded and k-sequential
// (preserving the exactness contract — independent elements may interleave),
// but the four chains hide FP-add latency and amortize the A loads, which is
// where the batched engine's throughput over a row-by-row matvec comes from.
//
//minicost:hotpath
func mulTransBBlock(dst, a, b *Matrix, bias []float64, lo, hi int) {
	n, k := b.Rows, a.Cols
	for j0 := 0; j0 < n; j0 += gemmColTile {
		j1 := j0 + gemmColTile
		if j1 > n {
			j1 = n
		}
		for r := lo; r < hi; r++ {
			arow := a.Data[r*k : (r+1)*k]
			drow := dst.Data[r*n : (r+1)*n]
			j := j0
			for ; j+4 <= j1; j += 4 {
				b0 := b.Data[j*k : j*k+k]
				b1 := b.Data[(j+1)*k : (j+1)*k+k]
				b2 := b.Data[(j+2)*k : (j+2)*k+k]
				b3 := b.Data[(j+3)*k : (j+3)*k+k]
				var s0, s1, s2, s3 float64
				if bias != nil {
					s0, s1, s2, s3 = bias[j], bias[j+1], bias[j+2], bias[j+3]
				}
				for i, v := range arow {
					s0 += v * b0[i]
					s1 += v * b1[i]
					s2 += v * b2[i]
					s3 += v * b3[i]
				}
				drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			}
			for ; j < j1; j++ {
				brow := b.Data[j*k : j*k+k]
				s := 0.0
				if bias != nil {
					s = bias[j]
				}
				for i, v := range arow {
					s += v * brow[i]
				}
				drow[j] = s
			}
		}
	}
}
