package mat

import (
	"math"
	"testing"

	"minicost/internal/rng"
)

// naiveMulTransB is the reference: per-element sequential-k dot, bias seed.
func naiveMulTransB(a, b *Matrix, bias []float64) *Matrix {
	out := New(a.Rows, b.Rows)
	for r := 0; r < a.Rows; r++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			if bias != nil {
				s = bias[j]
			}
			for k := 0; k < a.Cols; k++ {
				s = math.FMA(a.At(r, k), b.At(j, k), s)
			}
			out.Set(r, j, s)
		}
	}
	return out
}

func TestMulTransBMatchesNaiveBitwise(t *testing.T) {
	r := rng.New(7)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {17, 33, 9}, {64, 40, 64}, {130, 129, 7}, {257, 64, 128},
	}
	for _, sh := range shapes {
		a := randomMatrix(r, sh.m, sh.k)
		b := randomMatrix(r, sh.n, sh.k)
		bias := make([]float64, sh.n)
		for i := range bias {
			bias[i] = float64(2*r.Float64()) - 1
		}
		want := naiveMulTransB(a, b, nil)
		for _, workers := range []int{1, 0, 4} {
			got := MulTransBBiasTo(nil, a, b, nil, workers)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("MulTransB %dx%d·(%dx%d)ᵀ workers=%d: element %d = %v, want %v",
						sh.m, sh.k, sh.n, sh.k, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
		wantB := naiveMulTransB(a, b, bias)
		gotB := MulTransBBiasTo(nil, a, b, bias, 0)
		for i := range wantB.Data {
			if gotB.Data[i] != wantB.Data[i] {
				t.Fatalf("MulTransBBias: element %d = %v, want %v", i, gotB.Data[i], wantB.Data[i])
			}
		}
	}
}

func TestMulTransBToReusesBuffer(t *testing.T) {
	r := rng.New(4)
	a := randomMatrix(r, 16, 12)
	b := randomMatrix(r, 8, 12)
	dst := MulTransBBiasTo(nil, a, b, nil, 1)
	backing := &dst.Data[0]
	dst2 := MulTransBBiasTo(dst, a, b, nil, 1)
	if &dst2.Data[0] != backing {
		t.Fatal("MulTransBBiasTo did not reuse the output buffer")
	}
}

func TestEnsureShape(t *testing.T) {
	m := New(4, 6)
	backing := &m.Data[0]
	got := EnsureShape(m, 3, 8) // 24 == 24, reuse
	if &got.Data[0] != backing || got.Rows != 3 || got.Cols != 8 {
		t.Fatal("EnsureShape failed to reuse equal-capacity backing")
	}
	grown := EnsureShape(m, 10, 10)
	if grown.Rows != 10 || grown.Cols != 10 || len(grown.Data) != 100 {
		t.Fatal("EnsureShape failed to grow")
	}
	fresh := EnsureShape(nil, 2, 2)
	if fresh.Rows != 2 || fresh.Cols != 2 {
		t.Fatal("EnsureShape(nil) failed")
	}
}

func TestMulMatchesMulTransBOfTranspose(t *testing.T) {
	r := rng.New(9)
	a := randomMatrix(r, 33, 21)
	b := randomMatrix(r, 21, 18)
	viaT := MulTransBBiasTo(nil, a, transpose(b), nil, 0)
	direct := naiveMul(a, b)
	for i := range direct.Data {
		d := direct.Data[i] - viaT.Data[i]
		if d < -1e-12 || d > 1e-12 {
			t.Fatalf("Mul and MulTransB disagree at %d: %v vs %v", i, direct.Data[i], viaT.Data[i])
		}
	}
}
