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
		for _, workers := range []int{1, 0, 4} {
			for _, useBias := range []bool{true, false} {
				bs := bias
				if !useBias {
					bs = nil
				}
				want := MulTransBBiasTo(nil, a, b, bs, 1)
				got := MulPackTransBBiasTo(nil, a, pb, bs, workers)
				for i := range want.Data {
					if want.Data[i] != got.Data[i] {
						t.Fatalf("%dx%d·(%dx%d)ᵀ workers=%d bias=%v: packed[%d]=%v scalar=%v",
							c.m, c.k, c.n, c.k, workers, useBias, i, got.Data[i], want.Data[i])
					}
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
