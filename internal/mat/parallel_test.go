package mat

import (
	"testing"
)

// fillDet fills a matrix with a deterministic, non-uniform pattern so
// reordered accumulations would produce different bits.
func fillDet(m *Matrix, seed float64) {
	for i := range m.Data {
		v := float64(i%17) - float64(7.3*float64(i%5)) + seed
		m.Data[i] = v * 0.1875
	}
}

func detMatrix(rows, cols int, seed float64) *Matrix {
	m := New(rows, cols)
	fillDet(m, seed)
	return m
}

func detVec(n int, seed float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(float64(i%13)*0.375) - seed
	}
	return v
}

func equalBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v (not bitwise identical)", name, i, got[i], want[i])
		}
	}
}

// parallelShapes are odd shapes chosen above the parallel-flop threshold
// with dimensions not divisible by the row tile, the panel floor, the pack
// lane width, or any tested worker count — the ragged cases a sharding bug
// would corrupt first.
var parallelShapes = []struct{ rows, k, cols int }{
	{65, 129, 67},  // just past one row tile, ragged pack tail
	{131, 37, 129}, // one column past 8 full pack tiles
	{97, 53, 33},   // cols % packLanes = 1
	{128, 28, 128}, // paper-like: 128 filters/hidden, even everywhere
	{33, 300, 17},  // long shared dimension, few rows
}

var testWorkerCounts = []int{2, 3, 7, 16}

// TestMulTransBBiasToParallelBitwise pins the unpacked tiled GEMM: any
// worker count must match the serial result bit for bit.
func TestMulTransBBiasToParallelBitwise(t *testing.T) {
	for _, s := range parallelShapes {
		a := detMatrix(s.rows, s.k, 1.5)
		b := detMatrix(s.cols, s.k, -2.25)
		bias := detVec(s.cols, 0.5)
		want := MulTransBBiasTo(nil, a, b, bias, 1)
		for _, w := range testWorkerCounts {
			got := MulTransBBiasTo(nil, a, b, bias, w)
			equalBits(t, "MulTransBBiasTo", got.Data, want.Data)
		}
	}
}

// TestMulPackRowsBitwise pins the packed product's row-window entry against
// the unpacked serial kernel: one pack, then the batch multiplied a window at
// a time — ragged windows, last rows first, into a destination reused across
// worker counts and poisoned in between — leaves the whole-batch product.
func TestMulPackRowsBitwise(t *testing.T) {
	for _, s := range parallelShapes {
		a := detMatrix(s.rows, s.k, 0.75)
		b := detMatrix(s.cols, s.k, -1.125)
		bias := detVec(s.cols, 2.0)
		want := MulTransBBiasTo(nil, a, b, bias, 1)
		pack := PackTransBTo(nil, b)
		var dst *Matrix
		for wi, w := range append([]int{1}, testWorkerCounts...) {
			if dst != nil {
				for i := range dst.Data {
					dst.Data[i] = -1
				}
			}
			for hi := s.rows; hi > 0; {
				lo := hi - (5 + 7*wi) // windows of 5, 12, 19, … rows
				if lo < 0 {
					lo = 0
				}
				dst = MulPackTransBBiasRowsTo(dst, a, pack, bias, lo, hi, w)
				hi = lo
			}
			equalBits(t, "MulPackTransBBiasRowsTo", dst.Data, want.Data)
		}
	}
}

// TestPackParallelMatchesSerial pins the tile-sharded packers against their
// serial layouts byte for byte.
func TestPackParallelMatchesSerial(t *testing.T) {
	for _, s := range parallelShapes {
		b := detMatrix(s.cols, s.k, 3.5)
		want := PackTransBTo(nil, b)
		m := detMatrix(s.k, s.cols, -0.625)
		wantT := PackTransposeTo(nil, m)
		for _, w := range testWorkerCounts {
			got := PackTransBParTo(nil, b, w)
			equalBits(t, "PackTransBParTo", got.Data, want.Data)
			if got.Cols != want.Cols || got.K != want.K {
				t.Fatalf("PackTransBParTo dims %dx%d, want %dx%d", got.Cols, got.K, want.Cols, want.K)
			}
			gotT := PackTransposeParTo(nil, m, w)
			equalBits(t, "PackTransposeParTo", gotT.Data, wantT.Data)
		}
	}
}

// TestGradKernelsParallelBitwise pins the backward-pass products with
// their operands read in place at every worker count: the accumulating
// weight-gradient kernel (pre-seeded destinations) and the input-gradient
// product.
func TestGradKernelsParallelBitwise(t *testing.T) {
	for _, s := range parallelShapes {
		// dst += aᵀ·b, the weight gradient dW += dYᵀ·X.
		at := detMatrix(s.k, s.rows, 1.25)
		bt := detMatrix(s.k, s.cols, -0.5)
		wantA := detMatrix(s.rows, s.cols, -2.5)
		AddMulTransATo(wantA, at, bt, 1)
		for _, w := range testWorkerCounts {
			got := detMatrix(s.rows, s.cols, -2.5)
			AddMulTransATo(got, at, bt, w)
			equalBits(t, "AddMulTransATo", got.Data, wantA.Data)
		}

		// dst = a·b, the input gradient dX = dY·W.
		ka := detMatrix(s.rows, s.k, 0.875)
		kb := detMatrix(s.k, s.cols, -3.25)
		wantK := MulTo(nil, ka, kb, 1)
		for _, w := range testWorkerCounts {
			got := MulTo(nil, ka, kb, w)
			equalBits(t, "MulTo", got.Data, wantK.Data)
		}
	}
}

// TestMulPackRowsSerialAllocFree gates the workers=1 steady state: with warm
// scratch, a repack and a window-by-window multiply perform no allocations.
func TestMulPackRowsSerialAllocFree(t *testing.T) {
	a := detMatrix(64, 31, 1.0)
	b := detMatrix(33, 31, -1.0)
	bias := detVec(33, 0.25)
	pack := PackTransBTo(nil, b)
	dst := MulPackTransBBiasTo(nil, a, pack, bias, 1)
	allocs := testing.AllocsPerRun(10, func() {
		pack = PackTransBTo(pack, b)
		dst = MulPackTransBBiasRowsTo(dst, a, pack, bias, 0, 16, 1)
		dst = MulPackTransBBiasRowsTo(dst, a, pack, bias, 16, 64, 1)
	})
	if allocs != 0 {
		t.Fatalf("pack + windowed multiply at workers=1 allocates %.0f/op in the steady state, want 0", allocs)
	}
}

// TestParPanel pins the panel-sizing policy: serial keeps the historical
// tile, parallel panels give every worker at least two and respect the
// floor and ceiling.
func TestParPanel(t *testing.T) {
	if got := parPanel(1000, 1, gemmMinPanel); got != gemmRowTile {
		t.Fatalf("parPanel(serial) = %d, want %d", got, gemmRowTile)
	}
	for _, rows := range []int{17, 64, 100, 256, 1000} {
		for _, w := range []int{2, 4, 8, 32} {
			p := parPanel(rows, w, gemmMinPanel)
			if p < gemmMinPanel || p > gemmRowTile {
				t.Fatalf("parPanel(%d,%d) = %d outside [%d,%d]", rows, w, p, gemmMinPanel, gemmRowTile)
			}
			if chunks := (rows + p - 1) / p; rows >= 2*w*gemmMinPanel && chunks < 2*w {
				t.Fatalf("parPanel(%d,%d) = %d gives %d chunks, want >= %d", rows, w, p, chunks, 2*w)
			}
		}
	}
}
