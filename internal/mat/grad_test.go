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
		got := TransposeTo(nil, m)
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
		got = TransposeTo(got, m2)
		want = transpose(m2)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%d reuse: elem %d mismatch", sh.cols, sh.rows, i)
			}
		}
	}
}

func TestGradKernelShapePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"transA wrong rows", func() { AddMulTransATo(New(4, 4), New(2, 3), New(2, 4), 1) }},
		{"transA wrong cols", func() { AddMulTransATo(New(3, 5), New(2, 3), New(2, 4), 1) }},
		{"transA sample mismatch", func() { AddMulTransATo(New(3, 4), New(2, 3), New(5, 4), 1) }},
		{"mul shared mismatch", func() { MulTo(nil, New(2, 3), New(4, 5), 1) }},
		{"packacc shared mismatch", func() { MulPackAccTo(New(2, 4), New(2, 3), PackTransposeTo(nil, New(5, 4)), 1) }},
		{"packacc wrong dst", func() { MulPackAccTo(New(3, 4), New(2, 3), PackTransposeTo(nil, New(3, 4)), 1) }},
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

// guardLen is how many NaN sentinels follow a guarded operand.
const guardLen = 24

// guarded copies m to the front of a buffer whose last guardLen elements
// are NaN sentinels. The copy's Data ends exactly at the end of its
// capacity, so a Go read past it panics; a kernel's read past it would take
// in a sentinel, and a write past it would overwrite one (sentinelsIntact).
func guarded(m *Matrix) (*Matrix, []float64) {
	n := len(m.Data)
	buf := make([]float64, n+guardLen)
	copy(buf, m.Data)
	for i := n; i < len(buf); i++ {
		buf[i] = math.NaN()
	}
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: buf[:n:n]}, buf[n:]
}

func sentinelsIntact(t *testing.T, name string, sentinels []float64) {
	t.Helper()
	for i, v := range sentinels {
		if math.Float64bits(v) != math.Float64bits(math.NaN()) {
			t.Fatalf("%s: wrote %v over sentinel %d past the end", name, v, i)
		}
	}
}

// nonFiniteRowHeads puts ±Inf and NaN at the head of every third row from
// the second on: the elements that follow the previous row's last — its
// ragged tile's — lanes, where a tile read past its row would land.
func nonFiniteRowHeads(m *Matrix) {
	for r, v := 1, 0; r < m.Rows; r, v = r+3, v+1 {
		m.Data[r*m.Cols] = []float64{math.Inf(1), math.NaN(), math.Inf(-1)}[v%3]
	}
}

// backwardShapes are the Dense backward's products at every tile seam of
// the input width (1, 15, 16, 17 columns; 182 and the paper network's 3206,
// ragged, one k-block and several of the in-place walk) and batch rows on
// both sides of the eight-row kernel (1, 7, 8, 9) up to a 112-row arena;
// -short (the race-detector runs) leaves out the paper width.
func backwardShapes(outs ...int) (shapes []struct{ rows, in, out int }) {
	for _, in := range []int{1, 15, 16, 17, 182, 3206} {
		for _, rows := range []int{1, 7, 8, 9, 112} {
			if testing.Short() && in == 3206 {
				continue
			}
			for _, out := range outs {
				shapes = append(shapes, struct{ rows, in, out int }{rows, in, out})
			}
		}
	}
	return shapes
}

// TestMulPackAccBitwise pins the weight-gradient product dW += dYᵀ·X to the
// per-element reference — each element's chain over the batch rows
// ascending from its pre-seeded value, one math.FMA per term — bit for bit,
// at every kernel tier and at 1, 2 and 4 workers, by every route:
// AddMulTransATo on dY and X where they lie and MulPackAccTo on dY
// transposed against X packed. A shape m×k·k×n has m outputs, k batch rows
// and n inputs. Besides
// small odd shapes, m sits on both sides of the eight-row kernel; n at
// every tile seam (1, 15, 16, 17), at the Quick network's 182 and the
// paper's 3206, both ragged; k at 1, 7, 8 and 9, the 112-row arena and 200,
// past packKBlock. Every third seed is -0.0 and every fourth gradient row
// (a column of dY) is zero, so some elements take nothing but ±0 products
// and must come out signed as the reference's adds leave them — a kernel
// that summed the products from +0 and added the seed last would turn
// -0 + (-0) into +0. dY, X and dW each end exactly at the end of their
// buffers, NaN sentinels behind them, and X's rows start with ±Inf and NaN
// (nonFiniteRowHeads), so a tile lane read from the next row, or past the
// end, shows.
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
	seen := map[struct{ m, k, n int }]bool{}
	for _, sh := range shapes {
		seen[sh] = true
	}
	for _, sh := range backwardShapes(1, 9, 128) {
		if s := (struct{ m, k, n int }{sh.out, sh.rows, sh.in}); !seen[s] {
			seen[s] = true
			shapes = append(shapes, s)
		}
	}
	negZero := math.Copysign(0, -1)
	for _, sh := range shapes {
		a := randMat(r, sh.m, sh.k) // dYᵀ: dst rows × shared
		for i := 3; i < sh.m; i += 4 {
			clear(a.Data[i*sh.k : (i+1)*sh.k])
		}
		x := randMat(r, sh.k, sh.n) // input batch: shared × dst cols
		nonFiniteRowHeads(x)
		seed := randMat(r, sh.m, sh.n) // pre-seeded accumulator
		for i := 0; i < len(seed.Data); i += 3 {
			seed.Data[i] = negZero
		}
		want := seed.Clone()
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				s := want.At(i, j)
				for k := 0; k < sh.k; k++ {
					s = math.FMA(a.At(i, k), x.At(k, j), s)
				}
				want.Set(i, j, s)
			}
		}
		name := fmt.Sprintf("%dx%d·%dx%d", sh.m, sh.k, sh.k, sh.n)
		dy := transpose(a)
		dyG, dySent := guarded(dy)
		xG, xSent := guarded(x)
		pack := PackTransposeTo(nil, x)
		for _, tier := range kernelTiers() {
			t.Run(tier+"/"+name, func(t *testing.T) {
				forceTier(t, tier)
				for _, workers := range []int{1, 2, 4} {
					got, sent := guarded(seed)
					AddMulTransATo(got, dyG, xG, workers)
					sameBits(t, fmt.Sprintf("AddMulTransATo workers=%d", workers), got.Data, want.Data)
					sentinelsIntact(t, "AddMulTransATo dW", sent)
					got = seed.Clone()
					MulPackAccTo(got, a, pack, workers)
					sameBits(t, fmt.Sprintf("MulPackAccTo workers=%d", workers), got.Data, want.Data)
				}
				sentinelsIntact(t, "dY", dySent)
				sentinelsIntact(t, "X", xSent)
			})
		}
	}
}

// TestMulToTiers pins the input-gradient product dX = dY·W, W read where it
// lies, to the per-element reference — each element's chain over the
// outputs ascending from +0, one math.FMA per term — bit for bit at every
// kernel tier and at 1 and 4 workers, at 3 outputs, 128 and 200 (past one
// packKBlock). The destination starts out holding NaN, which the sums must
// not take in; one gradient row is -0.0 and one +0, whose sums are +0 from
// a +0 start and would keep -0 from a -0 one. dY, W and dX end exactly at
// the end of their buffers, NaN sentinels behind them, and W's rows start
// with ±Inf and NaN.
func TestMulToTiers(t *testing.T) {
	r := rng.New(23)
	for _, sh := range backwardShapes(3, 128, 200) {
		dy := randMat(r, sh.rows, sh.out)
		for o := 0; o < sh.out; o++ {
			dy.Data[(sh.rows/2)*sh.out+o] = math.Copysign(0, -1)
			dy.Data[(sh.rows-1)*sh.out+o] = 0
		}
		w := randMat(r, sh.out, sh.in)
		nonFiniteRowHeads(w)
		want := New(sh.rows, sh.in)
		for rr := 0; rr < sh.rows; rr++ {
			for i := 0; i < sh.in; i++ {
				s := 0.0
				for o := 0; o < sh.out; o++ {
					s = math.FMA(dy.Data[rr*sh.out+o], w.Data[o*sh.in+i], s)
				}
				want.Data[rr*sh.in+i] = s
			}
		}
		dyG, dySent := guarded(dy)
		wG, wSent := guarded(w)
		name := fmt.Sprintf("rows%d/in%d/out%d", sh.rows, sh.in, sh.out)
		for _, tier := range kernelTiers() {
			t.Run(tier+"/"+name, func(t *testing.T) {
				forceTier(t, tier)
				for _, workers := range []int{1, 4} {
					dst, sent := guarded(New(sh.rows, sh.in))
					for i := range dst.Data {
						dst.Data[i] = math.NaN()
					}
					got := MulTo(dst, dyG, wG, workers)
					if &got.Data[0] != &dst.Data[0] {
						t.Fatal("MulTo reallocated a destination of the right size")
					}
					sameBits(t, fmt.Sprintf("MulTo workers=%d", workers), got.Data, want.Data)
					sentinelsIntact(t, "MulTo dX", sent)
				}
				sentinelsIntact(t, "dY", dySent)
				sentinelsIntact(t, "W", wSent)
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
		{"transA shared mismatch", func() { AddMulTransATo(New(8, 5), a, New(3, 5), 1) }},
		{"transA dst", func() { AddMulTransATo(New(8, 6), a, New(4, 5), 1) }},
		{"mul shared mismatch", func() { MulTo(nil, a, New(7, 5), 1) }},
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
