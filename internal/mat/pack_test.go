package mat

import (
	"testing"

	"minicost/internal/rng"
)

func TestPackTransBLayout(t *testing.T) {
	b := randomMatrix(rng.New(41), 19, 5) // ragged: 19 columns -> 2 tiles
	pb := PackTransBTo(nil, b)
	if pb.Cols != 19 || pb.K != 5 {
		t.Fatalf("packed dims %dx%d", pb.Cols, pb.K)
	}
	if len(pb.Data) != 2*5*packLanes {
		t.Fatalf("packed len %d", len(pb.Data))
	}
	for j := 0; j < b.Rows; j++ {
		tile, lane := j/packLanes, j%packLanes
		for i := 0; i < b.Cols; i++ {
			if got := pb.Data[tile*b.Cols*packLanes+i*packLanes+lane]; got != b.At(j, i) {
				t.Fatalf("pack[%d][%d] = %v, want %v", j, i, got, b.At(j, i))
			}
		}
	}
	// Padded lanes must be zero.
	for lane := 19 % packLanes; lane < packLanes; lane++ {
		for i := 0; i < b.Cols; i++ {
			if v := pb.Data[1*b.Cols*packLanes+i*packLanes+lane]; v != 0 {
				t.Fatalf("pad lane %d not zeroed: %v", lane, v)
			}
		}
	}
}

// TestMulPackMatchesScalarBitwise pins the packed (SIMD on amd64) kernel to
// the scalar reference: identical bits at every shape, including ragged
// tiles, tiny k, and no-bias calls. The 200×35 cases put row counts on both
// sides of every packRowPanel seam, with a ragged last panel, over two
// k-blocks, two full column tiles and a ragged one.
func TestMulPackMatchesScalarBitwise(t *testing.T) {
	r := rng.New(42)
	cases := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 4, 3}, {7, 34, 16}, {13, 9, 17},
		{64, 128, 32}, {57, 3206, 128}, {2, 4, 128}, {5, 7, 15},
		{1, 200, 35}, {63, 200, 35}, {64, 200, 35}, {65, 200, 35}, {129, 200, 35}, {1000, 200, 35},
	}
	for _, c := range cases {
		a := randomMatrix(r, c.m, c.k)
		b := randomMatrix(r, c.n, c.k)
		bias := make([]float64, c.n)
		for i := range bias {
			bias[i] = r.NormalMS(0, 1)
		}
		pb := PackTransBTo(nil, b)
		for _, useBias := range []bool{true, false} {
			bs := bias
			if !useBias {
				bs = nil
			}
			want := MulTransBBiasTo(nil, a, b, bs)
			got := MulPackTransBBiasTo(nil, a, pb, bs, 1)
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("%dx%d·(%dx%d)ᵀ bias=%v: packed[%d]=%v scalar=%v",
						c.m, c.k, c.n, c.k, useBias, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestMulPackReusesBuffers(t *testing.T) {
	r := rng.New(43)
	a := randomMatrix(r, 10, 20)
	b := randomMatrix(r, 17, 20)
	pb := PackTransBTo(nil, b)
	packData := &pb.Data[0]
	pb = PackTransBTo(pb, b)
	if &pb.Data[0] != packData {
		t.Fatal("PackTransBTo reallocated a sufficient buffer")
	}
	dst := MulPackTransBBiasTo(nil, a, pb, nil, 1)
	dstData := &dst.Data[0]
	dst = MulPackTransBBiasTo(dst, a, pb, nil, 1)
	if &dst.Data[0] != dstData {
		t.Fatal("MulPackTransBBiasTo reallocated a sufficient buffer")
	}
	allocs := testing.AllocsPerRun(10, func() {
		pb = PackTransBTo(pb, b)
		dst = MulPackTransBBiasTo(dst, a, pb, nil, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state pack+mul allocates %.0f times, want 0", allocs)
	}
}

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

// raggedShapes have dimensions not divisible by the pack lane width or the
// eight-row kernel — the ragged cases a windowing bug would corrupt first.
var raggedShapes = []struct{ rows, k, cols int }{
	{65, 129, 67},  // just past 64 rows, ragged pack tail
	{131, 37, 129}, // one column past 8 full pack tiles
	{97, 53, 33},   // cols % packLanes = 1
	{128, 28, 128}, // paper-like: 128 filters/hidden, even everywhere
	{33, 300, 17},  // long shared dimension, few rows
}

// TestMulPackRowsBitwise pins the packed product's row-window entry against
// the unpacked kernel: one pack, then the batch multiplied a window at a
// time — ragged windows, last rows first, into a destination reused across
// passes and poisoned in between — leaves the whole-batch product.
func TestMulPackRowsBitwise(t *testing.T) {
	for _, s := range raggedShapes {
		a := detMatrix(s.rows, s.k, 0.75)
		b := detMatrix(s.cols, s.k, -1.125)
		bias := detVec(s.cols, 2.0)
		want := MulTransBBiasTo(nil, a, b, bias)
		pack := PackTransBTo(nil, b)
		var dst *Matrix
		for wi := 0; wi < 5; wi++ {
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
				dst = MulPackTransBBiasRowsTo(dst, a, pack, bias, lo, hi)
				hi = lo
			}
			equalBits(t, "MulPackTransBBiasRowsTo", dst.Data, want.Data)
		}
	}
}

// TestMulPackRowsSerialAllocFree gates the steady state: with warm scratch,
// a repack and a window-by-window multiply perform no allocations.
func TestMulPackRowsSerialAllocFree(t *testing.T) {
	a := detMatrix(64, 31, 1.0)
	b := detMatrix(33, 31, -1.0)
	bias := detVec(33, 0.25)
	pack := PackTransBTo(nil, b)
	dst := MulPackTransBBiasTo(nil, a, pack, bias, 1)
	allocs := testing.AllocsPerRun(10, func() {
		pack = PackTransBTo(pack, b)
		dst = MulPackTransBBiasRowsTo(dst, a, pack, bias, 0, 16)
		dst = MulPackTransBBiasRowsTo(dst, a, pack, bias, 16, 64)
	})
	if allocs != 0 {
		t.Fatalf("pack + windowed multiply allocates %.0f/op in the steady state, want 0", allocs)
	}
}

// TestWorkersArgumentSerialOnly pins the two products that still take a
// workers argument: 0 and 1 run the product on the calling goroutine, bit
// for bit the argument-free entries, and anything else panics.
func TestWorkersArgumentSerialOnly(t *testing.T) {
	a := detMatrix(9, 21, 0.5)
	b := detMatrix(19, 21, -0.25)
	bias := detVec(19, 1.5)
	pack := PackTransBTo(nil, b)
	want := MulPackTransBBiasRowsTo(nil, a, pack, bias, 0, a.Rows)
	px := PackTransposeTo(nil, detMatrix(9, 19, 0.125))
	dyT := detMatrix(7, 9, -0.75)
	wantAcc := detMatrix(7, 19, 3.0)
	AddMulTransATo(wantAcc, transpose(dyT), detMatrix(9, 19, 0.125))
	for _, workers := range []int{0, 1} {
		equalBits(t, "MulPackTransBBiasTo", MulPackTransBBiasTo(nil, a, pack, bias, workers).Data, want.Data)
		got := detMatrix(7, 19, 3.0)
		MulPackAccTo(got, dyT, px, workers)
		equalBits(t, "MulPackAccTo", got.Data, wantAcc.Data)
	}
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"MulPackTransBBiasTo", func() { MulPackTransBBiasTo(nil, a, pack, bias, 2) }},
		{"MulPackAccTo", func() { MulPackAccTo(detMatrix(7, 19, 3.0), dyT, px, 2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with workers 2 did not panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}
