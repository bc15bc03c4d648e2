package mat

import (
	"fmt"
	"math"
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
	tiles := (b.Rows + packLanes - 1) / packLanes
	dst = ensurePacked(dst, tiles, b.Cols, b.Rows)
	for t := 0; t < tiles; t++ {
		packTransBTile(dst, b, t)
	}
	return dst
}

// packTransBTile fills tile t of the packed operand from b's rows: each
// k-step's lanes are gathered from the tile's source rows and stored as one
// contiguous 128-byte run, zero past the last row, so the destination is
// written once, in order. Writing each source row's run of k-steps down its
// lane instead, eight 8-byte stores to every destination line, took about
// twice as long (BenchmarkBackwardParams' wpack: the paper network's
// 128×3206 hidden block in ≈0.7–0.95 ms, against ≈0.4–0.6 so).
func packTransBTile(dst *PackedTransB, b *Matrix, t int) {
	k := b.Cols
	seg := dst.Data[t*k*packLanes : (t+1)*k*packLanes]
	lanes := min(b.Rows-t*packLanes, packLanes) // source rows in this tile; the rest is padding
	rows := b.Data[t*packLanes*k : (t*packLanes+lanes)*k]
	for i := 0; i < k; i++ {
		out := seg[i*packLanes : (i+1)*packLanes]
		for lane, j := 0, i; lane < lanes; lane, j = lane+1, j+k {
			out[lane] = rows[j]
		}
		for lane := lanes; lane < packLanes; lane++ {
			out[lane] = 0
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
	tiles := (m.Cols + packLanes - 1) / packLanes
	dst = ensurePacked(dst, tiles, m.Rows, m.Cols)
	packTransposeTiles(dst, m, tiles)
	return dst
}

// packTransposeRows is how many rows of m packTransposeTiles takes across
// all of its tiles before it moves down: sixteen source rows are sixteen
// sequential read streams, and each tile receives them as one contiguous
// 2 KiB. Sixteen is faster than eight and no slower than thirty-two
// (DESIGN §10). The walk orders the writes only: the bytes are
// PackTransBTo's layout of mᵀ.
const packTransposeRows = 16

// packTransposeTiles fills the packed operand's tiles from m's columns,
// packTransposeRows rows of m at a time.
//
//minicost:hotpath
func packTransposeTiles(dst *PackedTransB, m *Matrix, tiles int) {
	k, n := m.Rows, m.Cols
	for i0 := 0; i0 < k; i0 += packTransposeRows {
		i1 := min(i0+packTransposeRows, k)
		for t := 0; t < tiles; t++ {
			j0 := t * packLanes
			seg := dst.Data[t*k*packLanes : (t+1)*k*packLanes]
			for i := i0; i < i1; i++ {
				drow := seg[i*packLanes : (i+1)*packLanes]
				clear(drow[copy(drow, m.Data[i*n+j0:(i+1)*n]):]) // a ragged tile's padding lanes
			}
		}
	}
}

// lhs is a left operand as the packed kernels read it, where it lies:
// element (r, i) — output row r, shared step i — is data[r*rs + i*ks]. A
// row-major matrix has rs = Cols and ks = 1; the same matrix read
// transposed (the weight gradient's dYᵀ) has rs = 1 and ks = Cols.
type lhs struct {
	data   []float64
	rs, ks int
}

// rowMajor is a read as the left operand of a·B.
func rowMajor(a *Matrix) lhs { return lhs{a.Data, a.Cols, 1} }

// transposed is a read as the left operand of aᵀ·B.
func transposed(a *Matrix) lhs { return lhs{a.Data, 1, a.Cols} }

// at is the operand from row r and step i on.
func (a lhs) at(r, i int) lhs {
	a.data = a.data[r*a.rs+i*a.ks:]
	return a
}

// rhs is a right operand: at shared step i the 16 lanes of the column tile
// that starts at output column j are data[j*tile + i*ks :][:16]. A
// PackedTransB has tile = K and ks = 16, its ragged last tile zero-padded
// (padded); a row-major K×N matrix read in place has tile = 1 and ks = N,
// and its ragged last tile — whose 16 lanes would run into the next row,
// and past the end on the last — reaches the kernel through a zero-padded
// copy (packTail).
type rhs struct {
	data     []float64
	tile, ks int
	padded   bool
}

func (pb *PackedTransB) rhs() rhs { return rhs{pb.Data, pb.K, packLanes, true} }

// inPlace is b, a row-major K×N matrix, as the right operand of a·b.
func inPlace(b *Matrix) rhs { return rhs{b.Data, 1, b.Cols, false} }

// at is the operand from column j's tile and step i on.
func (b rhs) at(j, i int) rhs {
	b.data = b.data[j*b.tile+i*b.ks:]
	return b
}

// MulPackTransBBiasTo is the packed-operand version of MulTransBBiasTo:
// dst[r][c] = bias[c] + Σ_k a[r][k]·B[c][k] with B pre-packed by
// PackTransBTo. It is the hot path of the batched inference engine — on
// amd64 with AVX the inner kernel runs one output column per vector lane —
// and is bitwise identical to MulTransBBiasTo and to nn's scalar test
// oracle (each element's accumulation is still bias-seeded and k-sequential;
// see gemm.go). workers must be 0 or 1 (see checkSerial).
func MulPackTransBBiasTo(dst, a *Matrix, pb *PackedTransB, bias []float64, workers int) *Matrix {
	checkSerial("MulPackTransBBiasTo", workers)
	return MulPackTransBBiasRowsTo(dst, a, pb, bias, 0, a.Rows)
}

// checkSerial panics unless workers is 0 or 1. Every product runs on the
// calling goroutine — callers split cores across files, shards and
// training workers, never inside one product — and the two exported
// products that still take a workers argument keep it only because the
// end-to-end benchmark's probes pass it; the argument goes when the
// benchmark next changes.
func checkSerial(fn string, workers int) {
	if workers != 0 && workers != 1 {
		panic(fmt.Sprintf("mat: %s workers %d: products run serially, pass 0 or 1", fn, workers))
	}
}

// MulPackTransBBiasRowsTo is MulPackTransBBiasTo for the row window [lo, hi)
// of a: dst is sized for all of a's rows (reusing its storage when it is
// large enough, which leaves the rows outside the window as they were) and
// only rows [lo, hi) are written. Rows are independent output elements, so
// windows that cover [0, a.Rows), in any order, leave what one whole-range
// call leaves, bit for bit — the vectorized trainer's rollouts fill the
// update's activations one lockstep block at a time this way.
func MulPackTransBBiasRowsTo(dst, a *Matrix, pb *PackedTransB, bias []float64, lo, hi int) *Matrix {
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
	mulPackBlock(dst.Data, rowMajor(a), pb.rhs(), pb.Cols, pb.K, bias, true, lo, hi)
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

// mulPackBlock computes rows [lo, hi) of dst (row stride n) as a·B over k
// shared steps, one packRowPanel of rows at a time, seeded by the bias when
// there is one, else from +0 with zero set, else from dst's own values. A
// bias is copied into the panel's rows first; a +0 start is the first
// k-block's sums starting at +0 in the kernel's registers, which is what
// adding onto a zeroed destination would give, bit for bit. The shared
// dimension is blocked outermost (see packKBlock), then the column tiles,
// then the rows (dotPackRows, eight to a kernel call where the CPU has the
// registers): the tile segment the rows revisit stays L1-hot and the
// panel's k-block stays L2-hot across the tiles, with the running sums
// parked in dst between blocks. The ragged last tile then runs through the
// same kernel (packTail), so a 3-wide output layer costs one tile per row,
// not three scalar dots. Every element stays k-sequential.
//
//minicost:hotpath
func mulPackBlock(dst []float64, a lhs, b rhs, n, k int, bias []float64, zero bool, lo, hi int) {
	zero = zero && bias == nil
	full := n / packLanes * packLanes
	for p0 := lo; p0 < hi; p0 += packRowPanel {
		p1 := min(p0+packRowPanel, hi)
		if bias != nil {
			for r := p0; r < p1; r++ {
				copy(dst[r*n:(r+1)*n], bias)
			}
		} else if zero && k == 0 {
			clear(dst[p0*n : p1*n])
		}
		for k0 := 0; k0 < k; k0 += packKBlock {
			k1 := min(k0+packKBlock, k)
			ak := a.at(0, k0)
			for j := 0; j < full; j += packLanes {
				dotPackRows(dst[j:], n, ak, b.at(j, k0), k1-k0, p0, p1, zero && k0 == 0)
			}
		}
		if full < n && k > 0 {
			packTail(dst[full:], n, n-full, a, b.at(full, 0), k, p0, p1, zero)
		}
	}
}

// packTailSteps is how many k-steps of an in-place operand's ragged tile
// packTail copies out at a time: 64 steps of 16 lanes are 8 KiB of stack.
const packTailSteps = 64

// packTail accumulates a ragged last column tile — the lanes columns of b's
// tile, lanes < 16 — into rows [r0, r1) of c (c starts at the tile's first
// column, row stride ldc), at most packRowPanel of them: c[r][l] +=
// Σ_i a[r][i]·b[i][l], i ascending from the element's current value, or
// from +0 with zero set. Its accumulators are a 16-lane stack panel with
// row stride 16, so dotPackRows takes the tile exactly as it takes a full
// one; the real lanes are loaded from c (unless zero) and copied back, and
// the lanes past them multiply zero padding and are dropped. A packed
// operand carries that padding; an operand read in place has its tile's
// real lanes copied, packTailSteps steps at a time, into a zeroed stack
// tile, so nothing reads past the lanes it owns. The kernels are
// go:noescape, so both panels stay on the stack and the products stay
// allocation-free.
//
//minicost:hotpath
func packTail(c []float64, ldc, lanes int, a lhs, b rhs, k, r0, r1 int, zero bool) {
	var acc [packRowPanel * packLanes]float64
	var tile [packTailSteps * packLanes]float64
	if !zero {
		for r := r0; r < r1; r++ {
			copy(acc[(r-r0)*packLanes:], c[r*ldc:r*ldc+lanes])
		}
	}
	step := packKBlock
	if !b.padded {
		step = packTailSteps
	}
	for k0 := 0; k0 < k; k0 += step {
		k1 := min(k0+step, k)
		bk := b.at(0, k0)
		if !b.padded {
			for i := k0; i < k1; i++ {
				copy(tile[(i-k0)*packLanes:], b.data[i*b.ks:i*b.ks+lanes])
			}
			bk = rhs{data: tile[:], ks: packLanes}
		}
		dotPackRows(acc[:], packLanes, a.at(r0, k0), bk, k1-k0, 0, r1-r0, zero && k0 == 0)
	}
	for r := r0; r < r1; r++ {
		copy(c[r*ldc:r*ldc+lanes], acc[(r-r0)*packLanes:])
	}
}

// dotPack16Generic is the portable kernel: acc[lane] += Σ_i a[i·sa]·
// b[i·sb+lane] over k steps, from +0 instead of acc with zero set, each
// lane sequential in i, one fused multiply-add per term. It backs
// dotPackRows on builds without assembly and on amd64 CPUs without AVX and
// FMA.
func dotPack16Generic(a []float64, sa int, b []float64, sb int, acc []float64, k int, zero bool) {
	var s [packLanes]float64
	if !zero {
		copy(s[:], acc)
	}
	for i := 0; i < k; i++ {
		v := a[i*sa]
		t := b[i*sb : i*sb+packLanes]
		for j := range s {
			s[j] = math.FMA(v, t[j], s[j])
		}
	}
	copy(acc, s[:])
}
