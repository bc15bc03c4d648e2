package mat

import (
	"fmt"
	"math"

	"minicost/internal/par"
)

// packLanes is the column-tile width of the packed GEMM kernels: one output
// column per SIMD lane across four 4-wide (AVX) or two 8-wide (AVX-512)
// vector accumulators per row (see gemm_amd64.s). The generic fallback uses
// the same layout.
const packLanes = 16

// PackedTransB is a transposed-B operand (weights: row j holds output
// column j's coefficients) re-laid-out for the packed kernel: columns are
// grouped into tiles of packLanes and interleaved along k, so tile t stores
// Data[t*K*packLanes + i*packLanes + lane] = B[t*packLanes+lane][i]. Lanes
// past Cols are zero-padded, which lets every tile run the same kernel; the
// padded outputs are simply not written back.
//
// Packing exists to make the per-k loads of one tile contiguous. It never
// changes any element's accumulation order, so the exactness contract in
// gemm.go is unaffected.
type PackedTransB struct {
	Cols int // logical output columns (B rows)
	K    int // shared dimension (B cols)
	Data []float64
}

// ensurePacked sizes dst for a tiles×k packed operand with the given
// logical column count, reusing its backing storage when large enough. A
// new backing array is padded to sixteen in k as well, which holds the same
// matrix packed transposed: a Dense that is not frozen packs its weights
// both ways, in turn, in one buffer (nn's forwardRows and backwardBatch),
// and allocates it once.
func ensurePacked(dst *PackedTransB, tiles, k, cols int) *PackedTransB {
	need := tiles * k * packLanes
	if dst == nil {
		dst = &PackedTransB{}
	}
	if cap(dst.Data) >= need {
		dst.Data = dst.Data[:need]
	} else {
		dst.Data = make([]float64, need, tiles*packLanes*((k+packLanes-1)/packLanes*packLanes))
	}
	dst.Cols, dst.K = cols, k
	return dst
}

// PackTransBTo packs b into dst, reusing dst's backing storage when large
// enough (pass nil to allocate). The returned value must be used in place of
// dst.
func PackTransBTo(dst *PackedTransB, b *Matrix) *PackedTransB {
	return PackTransBParTo(dst, b, 1)
}

// PackTransBParTo is PackTransBTo with the packing tiles sharded over
// workers: every tile is a disjoint segment of dst's backing array, so
// workers write without contention and the layout (hence every downstream
// accumulation) is identical at any worker count. Small operands pack
// serially regardless of workers.
func PackTransBParTo(dst *PackedTransB, b *Matrix, workers int) *PackedTransB {
	tiles := (b.Rows + packLanes - 1) / packLanes
	dst = ensurePacked(dst, tiles, b.Cols, b.Rows)
	if workers == 1 || len(dst.Data) < packParMin {
		for t := 0; t < tiles; t++ {
			packTransBTile(dst, b, t)
		}
		return dst
	}
	par.ForBatched(tiles, 1, workers, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			packTransBTile(dst, b, t)
		}
	})
	return dst
}

// packCopyBlock is how many k-steps of a tile packTransBTile fills from all
// sixteen source rows before it moves along k: 64 steps are 8 KiB of
// destination and as much source, so the destination lines — each written
// eight times, once per lane that lands in it — are written in L1. Lane by
// lane over the whole of k, as it was, every one of those writes went out to
// L2: the paper network's 128×3206 hidden block packed in 0.77 ms against
// 0.5 now (what is left is streaming 3.3 MB in and 3.3 MB out), which a
// network that owns its weights pays on every ForwardBatch.
const packCopyBlock = 64

// packTransBTile fills tile t of the packed operand from b's rows.
func packTransBTile(dst *PackedTransB, b *Matrix, t int) {
	k := b.Cols
	seg := dst.Data[t*k*packLanes : (t+1)*k*packLanes]
	lanes := b.Rows - t*packLanes // source rows in this tile; the rest is padding
	if lanes > packLanes {
		lanes = packLanes
	}
	for i0 := 0; i0 < k; i0 += packCopyBlock {
		i1 := i0 + packCopyBlock
		if i1 > k {
			i1 = k
		}
		for lane := 0; lane < lanes; lane++ {
			out := seg[i0*packLanes+lane : i1*packLanes]
			j := t*packLanes + lane
			for i, v := range b.Data[j*k+i0 : j*k+i1] {
				out[i*packLanes] = v
			}
		}
	}
	for i := 0; i < k && lanes < packLanes; i++ {
		pad := seg[i*packLanes+lanes : (i+1)*packLanes]
		for lane := range pad {
			pad[lane] = 0
		}
	}
}

// PackTransposeTo packs mᵀ as a transposed-B operand without materializing
// the transpose: the packed operand's output columns are m's *columns* and
// the shared dimension is m's *rows* (Cols = m.Cols, K = m.Rows). Dense's
// batched backward uses it to run dX = dY·W on the packed kernel — W is
// stored row-per-output (Out×In), and the input-gradient product needs the
// In×Out orientation. The inner copy walks m row-major, so packing stays
// cache-friendly; the layout and zero-padding match PackTransBTo exactly.
func PackTransposeTo(dst *PackedTransB, m *Matrix) *PackedTransB {
	return PackTransposeParTo(dst, m, 1)
}

// PackTransposeParTo is PackTransposeTo with the packing tiles sharded over
// workers, under the same disjoint-tile contract as PackTransBParTo: each
// shard runs the serial walk (packTransposeTiles) over its own tiles.
func PackTransposeParTo(dst *PackedTransB, m *Matrix, workers int) *PackedTransB {
	tiles := (m.Cols + packLanes - 1) / packLanes
	dst = ensurePacked(dst, tiles, m.Rows, m.Cols)
	if workers == 1 || len(dst.Data) < packParMin {
		packTransposeTiles(dst, m, 0, tiles)
		return dst
	}
	par.ForBatched(tiles, 1, workers, func(lo, hi int) {
		packTransposeTiles(dst, m, lo, hi)
	})
	return dst
}

// packTransposeRows is how many rows of m packTransposeTiles takes across
// all of its tiles before it moves down: sixteen source rows are sixteen
// sequential read streams, and each tile receives them as one contiguous
// 2 KiB. Sixteen is faster than eight and no slower than thirty-two
// (DESIGN §10). The walk orders the writes only: the bytes are
// PackTransBTo's layout of mᵀ.
const packTransposeRows = 16

// packTransposeTiles fills tiles [t0, t1) of the packed operand from m's
// columns, packTransposeRows rows of m at a time.
//
//minicost:hotpath
func packTransposeTiles(dst *PackedTransB, m *Matrix, t0, t1 int) {
	k, n := m.Rows, m.Cols
	for i0 := 0; i0 < k; i0 += packTransposeRows {
		i1 := min(i0+packTransposeRows, k)
		for t := t0; t < t1; t++ {
			j0 := t * packLanes
			seg := dst.Data[t*k*packLanes : (t+1)*k*packLanes]
			for i := i0; i < i1; i++ {
				drow := seg[i*packLanes : (i+1)*packLanes]
				clear(drow[copy(drow, m.Data[i*n+j0:(i+1)*n]):]) // a ragged tile's padding lanes
			}
		}
	}
}

// MulPackTransBBiasTo is the packed-operand version of MulTransBBiasTo:
// dst[r][c] = bias[c] + Σ_k a[r][k]·B[c][k] with B pre-packed by
// PackTransBTo. It is the hot path of the batched inference engine — on
// amd64 with AVX the inner kernel runs one output column per vector lane —
// and is bitwise identical to MulTransBBiasTo and to nn's scalar test
// oracle (each element's accumulation is still bias-seeded and k-sequential;
// see gemm.go).
func MulPackTransBBiasTo(dst, a *Matrix, pb *PackedTransB, bias []float64, workers int) *Matrix {
	return MulPackTransBBiasRowsTo(dst, a, pb, bias, 0, a.Rows, workers)
}

// MulPackTransBBiasRowsTo is MulPackTransBBiasTo for the row window [lo, hi)
// of a: dst is sized for all of a's rows (reusing its storage when it is
// large enough, which leaves the rows outside the window as they were) and
// only rows [lo, hi) are written. Rows are independent output elements, so
// windows that cover [0, a.Rows), in any order, leave what one whole-range
// call leaves, bit for bit — the vectorized trainer's rollouts fill the
// update's activations one lockstep block at a time this way.
func MulPackTransBBiasRowsTo(dst, a *Matrix, pb *PackedTransB, bias []float64, lo, hi, workers int) *Matrix {
	if a.Cols != pb.K {
		panic(fmt.Sprintf("mat: MulPackTransB shape mismatch %dx%d · packed(%dx%d)ᵀ", a.Rows, a.Cols, pb.Cols, pb.K))
	}
	if bias != nil && len(bias) != pb.Cols {
		panic(fmt.Sprintf("mat: MulPackTransB bias len %d, want %d", len(bias), pb.Cols))
	}
	if lo < 0 || hi < lo || hi > a.Rows {
		panic(fmt.Sprintf("mat: MulPackTransB rows [%d,%d) of %d", lo, hi, a.Rows))
	}
	dst = EnsureShape(dst, a.Rows, pb.Cols)
	n := hi - lo
	if workers == 1 || n*a.Cols*pb.Cols < gemmParallelFlops {
		mulPackBlock(dst, a, pb, bias, lo, hi)
		return dst
	}
	w := resolveWorkers(workers)
	par.ForBatched(n, parPanel(n, w, gemmMinPanel), w, func(plo, phi int) {
		mulPackBlock(dst, a, pb, bias, lo+plo, lo+phi)
	})
	return dst
}

// packKBlock is the shared-dimension block length of the packed kernels:
// 192 k-steps of one 16-lane tile are 24 KiB, so the segment a row batch
// revisits stays L1-resident instead of re-streaming the whole 16·K tile
// from L2 once per row. Blocks run in ascending k order with the running
// sums parked in the destination row between blocks, which leaves every
// element's accumulation sequence — and therefore the bitwise contract —
// unchanged: a paused-and-resumed chain performs the identical adds.
const packKBlock = 192

// packRowPanel is how many A rows mulPackBlock takes through the whole
// packed operand before it moves on. Within a panel one k-block of the rows
// (64 × 192 floats, 96 KiB) is read by every column tile in turn, so it has
// to survive in L2 next to the tiles' segments of the same k-block (24 KiB
// each) — it does at any realistic cache size, and A is then streamed from
// memory exactly once whatever the batch length. Without panels the column
// tile was outermost over all rows: at the paper network's 3206-wide hidden
// input a 1024-row batch is 26 MB, re-streamed once per tile (eight times),
// and the per-row cost rose with the batch length (35 µs at 64 rows, 56 at
// 1024; 33 / 39 now). Panels partition rows — independent output elements —
// so no accumulation order changes.
const packRowPanel = 64

// mulPackBlock fills output rows [lo, hi) from the packed operand, one
// packRowPanel of rows at a time. A panel's destination is first seeded with
// the bias (or zero); then the shared dimension is blocked outermost (see
// packKBlock), then the column tiles, then the rows (dotPackRows, eight to a
// kernel call where the CPU has the registers): the tile segment the rows
// revisit stays L1-hot and the panel's k-block stays L2-hot across the
// tiles, with the running sums parked in dst between blocks. The ragged last
// tile then runs through the same kernel from its seeded lanes (packTail),
// so a 3-wide output layer costs one tile per row, not three scalar dots.
// Every element stays k-sequential.
//
//minicost:hotpath
func mulPackBlock(dst, a *Matrix, pb *PackedTransB, bias []float64, lo, hi int) {
	n, k := pb.Cols, pb.K
	full := n / packLanes * packLanes
	for p0 := lo; p0 < hi; p0 += packRowPanel {
		p1 := p0 + packRowPanel
		if p1 > hi {
			p1 = hi
		}
		for r := p0; r < p1; r++ {
			acc := dst.Data[r*n : (r+1)*n]
			if bias != nil {
				copy(acc, bias)
			} else {
				for i := range acc {
					acc[i] = 0
				}
			}
		}
		for k0 := 0; k0 < k; k0 += packKBlock {
			k1 := k0 + packKBlock
			if k1 > k {
				k1 = k
			}
			for j := 0; j < full; j += packLanes {
				seg := pb.Data[j*k+k0*packLanes : j*k+k1*packLanes]
				dotPackRows(dst.Data, n, j, a.Data, k, k0, k1, seg, p0, p1)
			}
		}
		if full < n {
			packTail(dst, a, pb, p0, p1)
		}
	}
}

// packTail accumulates the ragged last column tile of pb — columns
// [full, n), full the last multiple of 16 — into rows [r0, r1) of dst, at
// most packRowPanel of them: dst[r][c] += Σ_k a[r][k]·B[c][k], k ascending
// from the element's current value. Its accumulators are a 16-lane stack
// panel with row stride 16, so dotPackRows takes the tile exactly as it
// takes a full one, k-blocked the same way; the real lanes are loaded from
// dst and copied back, and the lanes past n multiply the pack's zero
// padding and are dropped. The kernels are go:noescape, so the panel stays
// on the stack and the packed products stay allocation-free.
//
//minicost:hotpath
func packTail(dst, a *Matrix, pb *PackedTransB, r0, r1 int) {
	var acc [packRowPanel * packLanes]float64
	n, k := pb.Cols, pb.K
	full := n / packLanes * packLanes
	for r := r0; r < r1; r++ {
		copy(acc[(r-r0)*packLanes:], dst.Data[r*n+full:(r+1)*n])
	}
	tile := pb.Data[full*k:]
	for k0 := 0; k0 < k; k0 += packKBlock {
		k1 := k0 + packKBlock
		if k1 > k {
			k1 = k
		}
		dotPackRows(acc[:], packLanes, 0, a.Data[r0*k:], k, k0, k1, tile[k0*packLanes:k1*packLanes], 0, r1-r0)
	}
	for r := r0; r < r1; r++ {
		copy(dst.Data[r*n+full:(r+1)*n], acc[(r-r0)*packLanes:])
	}
}

// dotPack16Generic is the portable kernel: acc[lane] += Σ_i a[i]·bp[i*16+lane],
// each lane sequential in i, one fused multiply-add per term. It backs
// dotPackRows on builds without assembly and on amd64 CPUs without AVX and
// FMA.
func dotPack16Generic(a, bp, acc []float64) {
	var s [packLanes]float64
	copy(s[:], acc)
	for i, v := range a {
		t := bp[i*packLanes : i*packLanes+packLanes]
		for j := range s {
			s[j] = math.FMA(v, t[j], s[j])
		}
	}
	copy(acc, s[:])
}
