package mat

import (
	"fmt"
	"math"
)

// This file holds the unpacked GEMM — blocked, cache-tiled, with a reusable
// output buffer and B transposed as nn stores weights (row o of the weight
// matrix holds output o's weights, i.e. B is already transposed for
// Y = X·Wᵀ) — which the packed kernel behind the batched engine
// (nn.ForwardBatch, pack.go) is held to, and the numerical contract every
// kernel in the package keeps.
//
// Numerical contract: for every output element the inner (k) accumulation
// runs sequentially over the full shared dimension, in index order, seeded
// with the bias when one is given, and every term is one fused multiply-add
// — s = fma(a, b, s), the product and the sum rounded once, as math.FMA
// computes it on any architecture and VFMADD231PD on amd64. That is exactly
// the operation sequence of nn's scalar test oracle for a Dense layer (one
// sample's W·x + b), so the batched path is *bitwise* identical to it,
// whatever the batch length and kernel tier — nn's equivalence tests rely on
// this. Blocking therefore tiles only the output rows and columns (which
// reorders independent elements, never an accumulation) and k-splitting
// into partial sums is deliberately avoided.

// gemmColTile is the tile of B rows kept hot in cache while the rows of A
// stream over it. With float64 data an 8×k B tile stays L2-resident up to
// k ≈ 16k.
const gemmColTile = 8

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
// bias means zero), unpacked, into a reusable buffer: dst's backing array is
// reused when large enough, and the returned matrix must be used in place of
// dst. It is LeastSquares' GEMM and the oracle the packed kernels are held
// to; Dense runs on the packed kernel (MulPackTransBBiasRowsTo) at every
// batch length. See the package comment above for the exactness contract.
func MulTransBBiasTo(dst, a, b *Matrix, bias []float64) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransB shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias != nil && len(bias) != b.Rows {
		panic(fmt.Sprintf("mat: MulTransB bias len %d, want %d", len(bias), b.Rows))
	}
	dst = EnsureShape(dst, a.Rows, b.Rows)
	mulTransBBlock(dst, a, b, bias)
	return dst
}

// mulTransBBlock fills every output row, tiling the B rows so each tile
// stays cache-resident while the A rows stream past. Within a tile, four
// output columns are computed together with four independent accumulators:
// each element's own accumulation is still bias-seeded and k-sequential
// (preserving the exactness contract — independent elements may interleave),
// but the four chains hide FMA latency and amortize the A loads, which is
// where the batched engine's throughput over a row-by-row matvec comes from.
//
//minicost:hotpath
func mulTransBBlock(dst, a, b *Matrix, bias []float64) {
	n, k := b.Rows, a.Cols
	for j0 := 0; j0 < n; j0 += gemmColTile {
		j1 := j0 + gemmColTile
		if j1 > n {
			j1 = n
		}
		for r := 0; r < a.Rows; r++ {
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
					s0 = math.FMA(v, b0[i], s0)
					s1 = math.FMA(v, b1[i], s1)
					s2 = math.FMA(v, b2[i], s2)
					s3 = math.FMA(v, b3[i], s3)
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
					s = math.FMA(v, brow[i], s)
				}
				drow[j] = s
			}
		}
	}
}
