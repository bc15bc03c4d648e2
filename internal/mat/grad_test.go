package mat

import (
	"fmt"
	"math"
	"testing"

	"minicost/internal/rng"
)

func randMat(r *rng.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormalMS(0, 1)
	}
	return m
}

func TestTransposeToMatchesT(t *testing.T) {
	r := rng.New(11)
	for _, sh := range []struct{ rows, cols int }{{1, 1}, {3, 7}, {16, 16}, {33, 5}} {
		m := randMat(r, sh.rows, sh.cols)
		want := transpose(m)
		got := TransposeParTo(nil, m, 1)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%dx%d: shape %dx%d", sh.rows, sh.cols, got.Rows, got.Cols)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%d: elem %d mismatch", sh.rows, sh.cols, i)
			}
		}
		// Reuse with a different shape must still be exact.
		m2 := randMat(r, sh.cols, sh.rows)
		got = TransposeParTo(got, m2, 1)
		want = transpose(m2)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%d reuse: elem %d mismatch", sh.cols, sh.rows, i)
			}
		}
	}
}

// mulTransBAccRef accumulates dst += a·bᵀ in place, each element's k-chain
// sequential and seeded with the element's current value: the unpacked tiled
// weight-gradient loop that MulPackAccTo replaced in production, kept as the
// oracle of the transposing route. Four independent output columns run
// together; every element's own k-accumulation stays sequential.
func mulTransBAccRef(dst, a, b *Matrix) {
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
				s0, s1, s2, s3 := drow[j], drow[j+1], drow[j+2], drow[j+3]
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
				s := drow[j]
				for i, v := range arow {
					s += v * brow[i]
				}
				drow[j] = s
			}
		}
	}
}

// TestMulTransBAccBitwise pins that oracle to the per-sample reference
// order: seed dst, then add Σ_k a[r][k]·b[c][k] one k at a time.
func TestMulTransBAccBitwise(t *testing.T) {
	r := rng.New(12)
	for _, sh := range []struct{ m, n, k int }{{1, 1, 1}, {3, 5, 7}, {17, 33, 7}, {64, 40, 9}} {
		a := randMat(r, sh.m, sh.k)
		b := randMat(r, sh.n, sh.k)
		dst := randMat(r, sh.m, sh.n) // pre-seeded accumulator
		want := dst.Clone()
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				s := want.At(i, j)
				for k := 0; k < sh.k; k++ {
					s += a.At(i, k) * b.At(j, k)
				}
				want.Set(i, j, s)
			}
		}
		mulTransBAccRef(dst, a, b)
		for i := range want.Data {
			if dst.Data[i] != want.Data[i] {
				t.Fatalf("%dx%d·(%dx%d)ᵀ: elem %d = %v, want %v (not bitwise equal)",
					sh.m, sh.k, sh.n, sh.k, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

// TestMulTransAAccBitwise pins the transpose-free weight-gradient kernel to
// the per-sample reference order: seed dst, then add Σ_k a[k][i]·b[k][j]
// one sample at a time, ascending. It must also agree exactly with the
// transposing route (TransposeParTo + the unpacked product, mulTransBAccRef),
// the large-batch path's shape before it moved to the packed kernel.
func TestMulTransAAccBitwise(t *testing.T) {
	r := rng.New(15)
	for _, sh := range []struct{ k, m, n int }{{1, 1, 1}, {7, 5, 33}, {5, 128, 40}, {16, 17, 9}} {
		a := randMat(r, sh.k, sh.m)
		b := randMat(r, sh.k, sh.n)
		dst := randMat(r, sh.m, sh.n) // pre-seeded accumulator
		want := dst.Clone()
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				s := want.At(i, j)
				for k := 0; k < sh.k; k++ {
					s += a.At(k, i) * b.At(k, j)
				}
				want.Set(i, j, s)
			}
		}
		other := dst.Clone()
		MulTransAAccTo(dst, a, b, 1)
		for i := range want.Data {
			if dst.Data[i] != want.Data[i] {
				t.Fatalf("(%dx%d)ᵀ·%dx%d: elem %d = %v, want %v (not bitwise equal)",
					sh.k, sh.m, sh.k, sh.n, i, dst.Data[i], want.Data[i])
			}
		}
		mulTransBAccRef(other, TransposeParTo(nil, a, 1), TransposeParTo(nil, b, 1))
		for i := range want.Data {
			if other.Data[i] != want.Data[i] {
				t.Fatalf("(%dx%d)ᵀ·%dx%d: transposing route elem %d diverges from reference",
					sh.k, sh.m, sh.k, sh.n, i)
			}
		}
	}
}

// TestMulKOuterBitwise pins the shared-dimension-outer product to the
// per-element reference: each dst element sums its k-terms ascending from a
// zero seed, exactly like the per-sample input-gradient loops.
func TestMulKOuterBitwise(t *testing.T) {
	r := rng.New(16)
	for _, sh := range []struct{ m, k, n int }{{1, 1, 1}, {7, 128, 33}, {5, 17, 600}, {16, 9, 40}} {
		a := randMat(r, sh.m, sh.k)
		b := randMat(r, sh.k, sh.n)
		want := New(sh.m, sh.n)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				s := 0.0
				for k := 0; k < sh.k; k++ {
					s += a.At(i, k) * b.At(k, j)
				}
				want.Set(i, j, s)
			}
		}
		// Dirty reused buffer: MulKOuterTo must fully overwrite it.
		dst := randMat(r, sh.m, sh.n)
		dst = MulKOuterTo(dst, a, b, 1)
		for i := range want.Data {
			if dst.Data[i] != want.Data[i] {
				t.Fatalf("%dx%d·%dx%d: elem %d = %v, want %v (not bitwise equal)",
					sh.m, sh.k, sh.k, sh.n, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

func TestGradKernelShapePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"transA wrong rows", func() { MulTransAAccTo(New(4, 4), New(2, 3), New(2, 4), 1) }},
		{"transA wrong cols", func() { MulTransAAccTo(New(3, 5), New(2, 3), New(2, 4), 1) }},
		{"transA sample mismatch", func() { MulTransAAccTo(New(3, 4), New(2, 3), New(5, 4), 1) }},
		{"kouter shared mismatch", func() { MulKOuterTo(nil, New(2, 3), New(4, 5), 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// TestPackTransposeMatchesPackOfT verifies PackTransposeTo(m) produces the
// identical packed layout as PackTransBTo(mᵀ), including padding, across
// ragged and exact tile widths — and PackTransposeParTo at 2 and 4 workers
// too, into a buffer left dirty by a previous pack so that a padding lane
// the walk missed would show. {112, 3206} and {128, 806} are the paper
// network's input batch and a weight block, row counts a multiple of the
// walk's row block, and {13, 3206} ends on a ragged one; 3206 columns end on
// a ragged tile.
func TestPackTransposeMatchesPackOfT(t *testing.T) {
	r := rng.New(13)
	for _, sh := range []struct{ rows, cols int }{{4, 3}, {7, 16}, {128, 33}, {5, 40}, {112, 3206}, {13, 3206}, {128, 806}} {
		m := randMat(r, sh.rows, sh.cols)
		want := PackTransBTo(nil, transpose(m))
		for _, workers := range []int{1, 2, 4} {
			dirty := &PackedTransB{Data: make([]float64, len(want.Data))}
			for i := range dirty.Data {
				dirty.Data[i] = math.NaN()
			}
			got := PackTransposeParTo(dirty, m, workers)
			if got.Cols != want.Cols || got.K != want.K || len(got.Data) != len(want.Data) {
				t.Fatalf("%dx%d: packed shape (%d,%d,%d) want (%d,%d,%d)",
					sh.rows, sh.cols, got.Cols, got.K, len(got.Data), want.Cols, want.K, len(want.Data))
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%dx%d workers=%d: packed elem %d = %v, want %v", sh.rows, sh.cols, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestPackTransposeGEMM runs the packed kernel on a transposed pack and
// checks bitwise agreement with the unpacked reference product a·(mᵀ)ᵀ.
func TestPackTransposeGEMM(t *testing.T) {
	r := rng.New(14)
	for _, sh := range []struct{ batch, rows, cols int }{{1, 4, 3}, {9, 7, 19}, {5, 128, 30}} {
		m := randMat(r, sh.rows, sh.cols) // plays W: rows=shared dim, cols=outputs
		a := randMat(r, sh.batch, sh.rows)
		pb := PackTransposeTo(nil, m)
		got := MulPackTransBBiasTo(nil, a, pb, nil, 1)
		want := MulTransBBiasTo(nil, a, transpose(m), nil, 1)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("batch %d %dx%d: elem %d = %v, want %v",
					sh.batch, sh.rows, sh.cols, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMulPackAccBitwise pins the packed weight-gradient kernel to the
// per-element reference: dst[m][j] += Σ_k a[m][k]·X[k][j] with each
// element's k-chain ascending from the element's pre-seeded value, bit for
// bit, at every kernel tier and at 1, 2 and 4 workers, and equal to the
// unpacked MulTransAAccTo route (the kernel it replaces on large batches).
// Besides small odd shapes, rows 1, 7, 9 and 128 sit on both sides of the
// blocked walk's 8-row group; columns 15, 16, 17 and 3206 on both sides of a
// tile and across many 128-column blocks; K 1, 112 and 200 on both sides of
// packKBlock. Every third seed is -0.0 and every fourth row of a is zero, so
// some elements take nothing but ±0 products and must come out signed as
// the reference's adds leave them — a kernel that summed the products from
// +0 and added the seed last would turn -0 + (-0) into +0.
func TestMulPackAccBitwise(t *testing.T) {
	r := rng.New(21)
	shapes := []struct{ m, k, n int }{{1, 1, 1}, {5, 7, 33}, {128, 448, 40}, {17, 16, 16}, {3, 28, 100}}
	for _, m := range []int{1, 7, 9, 128} {
		for _, n := range []int{15, 16, 17, 3206} {
			for _, k := range []int{1, 112, 200} {
				shapes = append(shapes, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	negZero := math.Copysign(0, -1)
	for _, sh := range shapes {
		a := randMat(r, sh.m, sh.k) // dYᵀ: dst rows × shared
		for i := 3; i < sh.m; i += 4 {
			clear(a.Data[i*sh.k : (i+1)*sh.k])
		}
		x := randMat(r, sh.k, sh.n)    // input batch: shared × dst cols
		seed := randMat(r, sh.m, sh.n) // pre-seeded accumulator
		for i := 0; i < len(seed.Data); i += 3 {
			seed.Data[i] = negZero
		}
		want := seed.Clone()
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				s := want.At(i, j)
				for k := 0; k < sh.k; k++ {
					s += a.At(i, k) * x.At(k, j)
				}
				want.Set(i, j, s)
			}
		}
		name := fmt.Sprintf("%dx%d·%dx%d", sh.m, sh.k, sh.k, sh.n)
		other := seed.Clone()
		MulTransAAccTo(other, TransposeParTo(nil, a, 1), x, 1)
		sameBits(t, name+" MulTransAAccTo", other.Data, want.Data)
		pack := PackTransposeTo(nil, x)
		for _, tier := range kernelTiers() {
			t.Run(tier+"/"+name, func(t *testing.T) {
				forceTier(t, tier)
				for _, workers := range []int{1, 2, 4} {
					got := seed.Clone()
					MulPackAccTo(got, a, pack, workers)
					sameBits(t, fmt.Sprintf("MulPackAccTo workers=%d", workers), got.Data, want.Data)
				}
			})
		}
	}
}

// TestMulPackAccParallelIdentical pins worker-count independence: the
// parallel fan-out splits destination rows, which are independent, so any
// worker count must produce bitwise-identical output.
func TestMulPackAccParallelIdentical(t *testing.T) {
	r := rng.New(22)
	a := randMat(r, 64, 448)
	x := randMat(r, 448, 300)
	px := PackTransposeTo(nil, x)
	ref := randMat(r, 64, 300)
	seed := ref.Clone()
	MulPackAccTo(ref, a, px, 1)
	for _, w := range []int{2, 4, 8} {
		dst := seed.Clone()
		MulPackAccTo(dst, a, px, w)
		for i := range ref.Data {
			if dst.Data[i] != ref.Data[i] {
				t.Fatalf("workers=%d: elem %d diverges from serial", w, i)
			}
		}
	}
}

func TestMulPackAccShapePanics(t *testing.T) {
	a := New(4, 8)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"shared mismatch", func() { MulPackAccTo(New(4, 5), a, PackTransposeTo(nil, New(9, 5)), 1) }},
		{"dst rows", func() { MulPackAccTo(New(3, 5), a, PackTransposeTo(nil, New(8, 5)), 1) }},
		{"dst cols", func() { MulPackAccTo(New(4, 6), a, PackTransposeTo(nil, New(8, 5)), 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}
