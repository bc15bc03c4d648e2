package mat

import (
	"fmt"
	"math"
	"testing"
)

// The kernel-tier tests: every tier the CPU has (generic, AVX, AVX-512),
// forced one at a time, against a textbook loop written here — bias- or
// destination-seeded, k ascending, one math.FMA per term — bit for bit,
// signed zeros included.

// sameBits compares by bit pattern, so -0 does not match +0, except that any
// NaN matches any NaN: which operand's payload and sign a NaN result carries
// depends on the operand order the compiler happened to emit (the textbook
// loop above changes its own under -race), not on the arithmetic.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specials are the values arithmetic treats specially; subnormal products
// and sums round on their own path.
var specials = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1030,
}

// saltedMatrix is detMatrix with a special value at every 11th element —
// every 211th of a large matrix: each subnormal operand costs a microcode
// assist, a hundred times the multiply — the non-finite ones confined to the
// listed rows so that most outputs stay finite and reordered sums would
// still show.
func saltedMatrix(rows, cols int, seed float64, nonFinite ...int) *Matrix {
	m := detMatrix(rows, cols, seed)
	step := 11
	if len(m.Data) >= 1<<12 {
		step = 211
	}
	for i := 0; i < len(m.Data); i += step {
		v := specials[(i/step)%len(specials)]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			ok := false
			for _, r := range nonFinite {
				ok = ok || i/cols == r
			}
			if !ok {
				continue
			}
		}
		m.Data[i] = v
	}
	return m
}

var (
	tierRows = []int{1, 7, 8, 9, 15, 16, 61, 64, 67, 112}
	tierKs   = []int{1, 191, 192, 193, 3206}
	tierCols = []int{1, 3, 16, 22, 48, 128}
)

// tierShapes is the cross product of the three lists; -short keeps the
// paper's shared dimension for two row counts only.
func tierShapes() (shapes []struct{ rows, k, cols int }) {
	for _, rows := range tierRows {
		for _, k := range tierKs {
			if testing.Short() && k == 3206 && rows != 9 && rows != 64 {
				continue
			}
			for _, cols := range tierCols {
				shapes = append(shapes, struct{ rows, k, cols int }{rows, k, cols})
			}
		}
	}
	return shapes
}

func TestPackedKernelTiersForward(t *testing.T) {
	for _, s := range tierShapes() {
		a := saltedMatrix(s.rows, s.k, 0.75, 2, s.rows-1)
		b := saltedMatrix(s.cols, s.k, -1.125, 1, s.cols-2)
		bias := detVec(s.cols, 2.0)
		bias[s.cols/2] = math.Copysign(0, -1)
		want := [2]*Matrix{New(s.rows, s.cols), New(s.rows, s.cols)} // nil bias, bias
		for r := 0; r < s.rows; r++ {
			for c := 0; c < s.cols; c++ {
				s0, s1 := 0.0, bias[c]
				for i := 0; i < s.k; i++ {
					s0 = math.FMA(a.Data[r*s.k+i], b.Data[c*s.k+i], s0)
					s1 = math.FMA(a.Data[r*s.k+i], b.Data[c*s.k+i], s1)
				}
				want[0].Data[r*s.cols+c], want[1].Data[r*s.cols+c] = s0, s1
			}
		}
		pack := PackTransBTo(nil, b)
		// The batch and the pack end at the end of their buffers, NaN
		// sentinels behind them.
		a, aSent := guarded(a)
		pg, packSent := guarded(&Matrix{Rows: 1, Cols: len(pack.Data), Data: pack.Data})
		pack.Data = pg.Data
		// A window that starts off every 8-row boundary; the rows around it
		// must keep what they held.
		lo, hi := 3, s.rows-2
		if hi <= lo {
			lo, hi = 0, s.rows
		}
		for _, tier := range kernelTiers() {
			t.Run(fmt.Sprintf("%s/%dx%dx%d", tier, s.rows, s.k, s.cols), func(t *testing.T) {
				forceTier(t, tier)
				var got *Matrix
				for wi, bs := range [][]float64{nil, bias} {
					got = MulPackTransBBiasRowsTo(got, a, pack, bs, 0, s.rows)
					sameBits(t, "whole batch", got.Data, want[wi].Data)
				}
				for i := range got.Data {
					got.Data[i] = -7
				}
				got = MulPackTransBBiasRowsTo(got, a, pack, bias, lo, hi)
				sameBits(t, "window", got.Data[lo*s.cols:hi*s.cols], want[1].Data[lo*s.cols:hi*s.cols])
				for i, v := range got.Data {
					if (i < lo*s.cols || i >= hi*s.cols) && v != -7 {
						t.Fatalf("window [%d,%d) wrote element %d", lo, hi, i)
					}
				}
				sentinelsIntact(t, "batch", aSent)
				sentinelsIntact(t, "pack", packSent)
			})
		}
	}
}

func TestPackedKernelTiersAcc(t *testing.T) {
	for _, s := range tierShapes() {
		a := saltedMatrix(s.rows, s.k, 0.75, 2, s.rows-1)
		x := saltedMatrix(s.k, s.cols, -1.125, 1, s.k-2)
		seed := saltedMatrix(s.rows, s.cols, 4.5)
		want := seed.Clone()
		for r := 0; r < s.rows; r++ {
			for c := 0; c < s.cols; c++ {
				sum := want.Data[r*s.cols+c]
				for i := 0; i < s.k; i++ {
					sum = math.FMA(a.Data[r*s.k+i], x.Data[i*s.cols+c], sum)
				}
				want.Data[r*s.cols+c] = sum
			}
		}
		pack, at := PackTransposeTo(nil, x), transpose(a)
		for _, tier := range kernelTiers() {
			t.Run(fmt.Sprintf("%s/%dx%dx%d", tier, s.rows, s.k, s.cols), func(t *testing.T) {
				forceTier(t, tier)
				got := seed.Clone()
				MulPackAccTo(got, a, pack, 1)
				sameBits(t, "MulPackAccTo", got.Data, want.Data)
				got = seed.Clone()
				AddMulTransATo(got, at, x)
				sameBits(t, "AddMulTransATo", got.Data, want.Data)
			})
		}
	}
}

// TestConv4Tiers pins the front-end kernels to a textbook loop at every
// output length around the vector groups — 1-3 (no vector), 4-9, 11 and 25
// (full four- and eight-wide groups with every ragged tail) — and at 3, 4,
// 7 and 16 filters: none, one and four whole passes of four filters, and
// the filters past them left to the portable loop. Each runs rectified and
// bare, on inputs whose products round (so a kernel that adds the taps in
// another order shows) and on inputs arranged so that sums land on -0, +0,
// NaN, ±Inf and the smallest subnormals: the values on which VMAXPD, a
// compare-and-mask rectifier and `v > 0` could disagree. Every third filter is the first's
// with its taps scaled, so such sums land in every lane of a pass; the
// filters share the window, so a tail that ran past its own filter's
// outputs would show in the next one's, and the responses sit inside a
// larger buffer whose other elements must survive.
func TestConv4Tiers(t *testing.T) {
	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	mixed := func(i int) float64 { return float64(float64((i*7)%11)*0.375) - 1.75 }
	spike := func(v float64) func(i, n int) float64 {
		return func(i, n int) float64 {
			if i == n/2 {
				return v
			}
			return mixed(i)
		}
	}
	all := func(v float64) func(i, n int) float64 { return func(i, n int) float64 { return v } }
	// filters returns nf filters' taps and biases: filter 3m is the first
	// filter, its positive taps scaled by 1+m/8, the others two fixed
	// patterns with their own offsets.
	filters := func(nf int, bias0 float64) (w, b []float64) {
		for f := 0; f < nf; f++ {
			m := float64(f / 3)
			switch f % 3 {
			case 0:
				sc := 1 + m/8
				w = append(w, 0.5*sc, 1.5*sc, 2*sc, 3*sc)
				b = append(b, bias0)
			case 1:
				w = append(w, -1.25, 0.75+m/4, -0.5, 2.5)
				b = append(b, -0.375-m/16)
			default:
				w = append(w, 1, -1-m/8, 1, -1)
				b = append(b, 1.5+m/4)
			}
		}
		return w, b
	}
	for _, sc := range []struct {
		name string
		bias float64 // the first filter's; its taps are positive
		x    func(i, n int) float64
		land float64 // a value the first filter's bare responses must contain, unless it is -7
	}{
		{"mixed signs", 0.25, func(i, n int) float64 { return mixed(i) }, -7},
		// Products and sums that round, so that a kernel adding the taps
		// in another order shows.
		{"inexact", 0.1, func(i, n int) float64 { return 1/(float64(i)+1.7) - 0.3 }, -7},
		{"-0", negZero, all(negZero), negZero},
		{"+0", 0, all(0), 0},
		{"-0 bias on +0", negZero, all(0), 0},
		{"smallest subnormal", tiny, all(negZero), tiny},
		{"-smallest subnormal", -tiny, all(0), -tiny},
		{"NaN", 0.25, spike(math.NaN()), math.NaN()},
		{"+Inf", 0.25, spike(math.Inf(1)), math.Inf(1)},
		{"-Inf", 0.25, spike(math.Inf(-1)), math.Inf(-1)},
	} {
		for _, nf := range []int{3, 4, 7, 16} {
			w, b := filters(nf, sc.bias)
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 25} {
				x := make([]float64, n+3)
				for i := range x {
					x[i] = sc.x(i, n)
				}
				for _, pass := range []uint64{0, ^uint64(0)} {
					want := make([]float64, len(b)*n)
					landed := sc.land == -7
					for i := range want {
						f, o := i/n, i%n
						s := b[f]
						for k, wk := range w[4*f : 4*f+4] {
							s = math.FMA(wk, x[o+k], s)
						}
						landed = landed || f == 0 && (math.Float64bits(s) == math.Float64bits(sc.land) || math.IsNaN(s) && math.IsNaN(sc.land))
						if pass == 0 && !(s > 0) {
							s = 0
						}
						want[i] = s
					}
					if !landed {
						t.Fatalf("%s n=%d: no response lands on %v", sc.name, n, sc.land)
					}
					for _, tier := range kernelTiers() {
						// Three filters, the base case, carries no filter count in its name.
						name := fmt.Sprintf("%s/%s/n%d/pass%d", tier, sc.name, n, pass&1)
						if nf != 3 {
							name += fmt.Sprintf("/filters%d", nf)
						}
						t.Run(name, func(t *testing.T) {
							forceTier(t, tier)
							buf := make([]float64, len(want)+8)
							for i := range buf {
								buf[i] = -7
							}
							Conv4To(buf[4:4+len(want)], x, w, b, pass)
							sameBits(t, "Conv4To", buf[4:4+len(want)], want)
							for i, v := range buf {
								if (i < 4 || i >= 4+len(want)) && v != -7 {
									t.Fatalf("wrote element %d outside y[0:%d]", i-4, len(want))
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestReluTiers pins the rectifier's forward (ReluTo) and gradient mask
// (ReluGradTo) to Gate, their definition, at every tier the CPU has: on
// lengths around the four- and eight-wide vectors and ragged tails, over
// inputs that cycle through ±0, ±the smallest subnormal, ±NaN, ±Inf and
// ordinary values of both signs, in place and into a buffer whose elements
// past the outputs must survive. A NaN gradient kept by the mask must keep
// its payload: the mask passes bits, not values.
func TestReluTiers(t *testing.T) {
	negNaN := math.Float64frombits(0xFFF8000000000123)
	edges := []float64{
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.NaN(), negNaN, math.Inf(1), math.Inf(-1), 1.5, -2.25, 0x1p-1030, -0x1p-1040, 3,
	}
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 67} {
		x, dy := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = edges[i%len(edges)]
			// A different phase, so each gradient value meets every mask.
			dy[i] = edges[(i*5+3)%len(edges)]
		}
		wantY, wantG := make([]float64, n), make([]float64, n)
		for i := range x {
			wantY[i] = Gate(x[i], x[i], 0)
			wantG[i] = Gate(dy[i], x[i], 0)
		}
		for _, tier := range kernelTiers() {
			t.Run(fmt.Sprintf("%s/n%d", tier, n), func(t *testing.T) {
				forceTier(t, tier)
				buf := make([]float64, n+4)
				for i := range buf {
					buf[i] = -7
				}
				ReluTo(buf[:n], x)
				sameGate(t, "ReluTo", buf[:n], wantY)
				ReluGradTo(buf[:n], dy, x)
				sameGate(t, "ReluGradTo", buf[:n], wantG)
				for i, v := range buf[n:] {
					if v != -7 {
						t.Fatalf("wrote element %d past the %d outputs", n+i, n)
					}
				}
				inplace := append([]float64(nil), x...)
				ReluTo(inplace, inplace)
				sameGate(t, "ReluTo in place", inplace, wantY)
				inplace = append(inplace[:0], dy...)
				ReluGradTo(inplace, inplace, x)
				sameGate(t, "ReluGradTo in place", inplace, wantG)
			})
		}
	}
}

// sameGate compares by bit pattern with no NaN exemption: a gate moves bits
// and computes nothing, so a NaN it keeps must come out as it went in.
func sameGate(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %#x, want %#x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// BenchmarkPackedKernel times the packed product at the paper network's
// shapes on every kernel tier the CPU has, one thread: the hidden layer's
// forward GEMM over a 64-row shard batch and a 1024-row plan, and the
// hidden weight gradient of a 112-row update (paper128 at E=16: dW is
// 128×3206, the shared dimension the batch).
func BenchmarkPackedKernel(b *testing.B) {
	const in, hidden = 3206, 128
	gflops := func(b *testing.B, m, k, n int) {
		b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
	}
	for _, tier := range kernelTiers() {
		for _, rows := range []int{64, 1024} {
			b.Run(fmt.Sprintf("fwd/m%d/%s", rows, tier), func(b *testing.B) {
				forceTier(b, tier)
				a := detMatrix(rows, in, 0.75)
				pack := PackTransBTo(nil, detMatrix(hidden, in, -1.125))
				bias := detVec(hidden, 2.0)
				dst := MulPackTransBBiasTo(nil, a, pack, bias, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = MulPackTransBBiasTo(dst, a, pack, bias, 1)
				}
				gflops(b, rows, in, hidden)
			})
		}
		b.Run("grad/"+tier, func(b *testing.B) {
			forceTier(b, tier)
			const batch = 112
			dyT := detMatrix(hidden, batch, 0.75)
			pack := PackTransposeTo(nil, detMatrix(batch, in, -1.125))
			dw := New(hidden, in)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulPackAccTo(dw, dyT, pack, 1)
			}
			gflops(b, hidden, batch, in)
		})
	}
}

// TestConv4GradTiers pins Conv4GradTo to a textbook loop — per filter, t
// ascending, a gated gradient of ±0 skipped, bias term then the taps — at
// every kernel tier: it must take the leading whole groups of four filters
// on a tier with the vector kernel and none on the generic one, and what it
// takes, topped up by the textbook loop over the rest, must leave the
// textbook's bits. Response gradients carry ±0, NaN, ±Inf and subnormals,
// masks ±0 and NaN, and the seeds -0.0, which an addend of +0 in place of a
// skip would turn into +0; every third filter sees only zero gradients, so
// its seeds must come out as they went in.
func TestConv4GradTiers(t *testing.T) {
	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	grads := []float64{0.75, negZero, -1.5, 0, math.NaN(), 2.25, math.Inf(1), tiny, -0.5, math.Inf(-1), -tiny, 1.25}
	masks := []float64{1, 0, 2, negZero, math.NaN(), 0.5, -1, tiny, 3}
	textbook := func(gw, gb, dy, y, x []float64, ol int, pass uint64, from int) {
		for f := from; f < len(gb); f++ {
			for t := 0; t < ol; t++ {
				g := dy[f*ol+t]
				if pass == 0 && !(y[f*ol+t] > 0) {
					g = 0
				}
				if g != 0 {
					gb[f] += g
					for k := 0; k < 4; k++ {
						gw[4*f+k] = math.FMA(g, x[t+k], gw[4*f+k])
					}
				}
			}
		}
	}
	for _, tier := range kernelTiers() {
		t.Run(tier, func(t *testing.T) {
			forceTier(t, tier)
			for _, filters := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 128} {
				for _, ol := range []int{1, 2, 3, 4, 5, 24, 25, 30} {
					x := make([]float64, ol+3)
					for i := range x {
						x[i] = float64(float64((i*5)%13)*0.375) - 2
					}
					dy, y := make([]float64, filters*ol), make([]float64, filters*ol)
					for i := range dy {
						dy[i] = grads[(i*7)%len(grads)]
						if (i/ol)%3 == 1 {
							dy[i] = []float64{0, negZero}[i%2]
						}
						y[i] = masks[(i*3)%len(masks)]
					}
					for _, pass := range []uint64{0, ^uint64(0)} {
						name := fmt.Sprintf("%d filters, ol %d, pass %#x", filters, ol, pass)
						want := struct{ w, b []float64 }{make([]float64, 4*filters), make([]float64, filters)}
						for i := range want.w {
							want.w[i] = []float64{negZero, 0.5, negZero}[i%3]
						}
						for i := range want.b {
							want.b[i] = negZero
						}
						got := struct{ w, b []float64 }{append([]float64(nil), want.w...), append([]float64(nil), want.b...)}
						textbook(want.w, want.b, dy, y, x, ol, pass, 0)
						n := Conv4GradTo(got.w, got.b, dy, y, x, pass)
						if wantN := filters &^ 3; tier == "generic" && n != 0 || tier != "generic" && n != wantN {
							t.Fatalf("%s: took %d filters", name, n)
						}
						textbook(got.w, got.b, dy, y, x, ol, pass, n)
						sameBits(t, name+" taps", got.w, want.w)
						sameBits(t, name+" biases", got.b, want.b)
					}
				}
			}
		})
	}
}

func TestConv4GradToShapePanics(t *testing.T) {
	for _, tc := range []struct {
		name             string
		gw, gb, dy, y, x int
	}{
		{"no output", 4, 1, 0, 0, 3},
		{"taps", 5, 1, 2, 2, 5},
		{"gradients", 4, 1, 3, 2, 5},
		{"masks", 4, 1, 2, 3, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			Conv4GradTo(make([]float64, tc.gw), make([]float64, tc.gb), make([]float64, tc.dy), make([]float64, tc.y), make([]float64, tc.x), 0)
		}()
	}
}
