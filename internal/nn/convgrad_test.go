package nn

import (
	"fmt"
	"math"
	"testing"

	"minicost/internal/mat"
	"minicost/internal/rng"
)

// sameFloats compares by bit pattern, so -0 does not match +0, except that
// any NaN matches any NaN: which operand's payload a NaN result carries
// depends on the operand order the compiler emits for the scalar loop — it
// differs under -race — not on the arithmetic.
func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestConvFilterGradMatchesScalarLoop pits Conv1D's filter gradient at the
// paper's kernel of four and stride one — mat.Conv4GradTo where the CPU has
// it, four filters to a vector without a branch — against filterGradRow, the
// scalar loop with the zero-gradient skip, run over every (row, filter) in
// order. Filter counts 1–9 and 128 put every ragged group on the scalar
// loop's side; output lengths 1–30 cover one response to the paper's 25 and
// beyond. The response gradients carry ±0, NaN, ±Inf and subnormals, the
// masks ±0 and NaN, both with the rectifier's gate shut (pass 0) and open
// (all ones, the mask then being the gradient itself), and the gradients
// are seeded with -0.0: a kernel that added the skipped terms as +0 would
// turn a seed whose filter sees only zero gradients into +0.
func TestConvFilterGradMatchesScalarLoop(t *testing.T) {
	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	gradVals := []float64{0.75, negZero, -1.5, 0, math.NaN(), 2.25, math.Inf(1), tiny, -0.5, math.Inf(-1), -tiny, 0x1p-1030, 1.25}
	maskVals := []float64{1, 0, 2, negZero, math.NaN(), 0.5, -1, tiny, 3, -tiny}
	const rows = 3
	r := rng.New(5)
	for _, filters := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 128} {
		for ol := 1; ol <= 30; ol++ {
			if leanMatrix() && filters == 128 && ol%7 != 4 {
				continue
			}
			c := NewConv1D(r, ol+3, filters, 4, 1)
			x := mat.New(rows, ol+3+2) // two tail columns, as the front-end's Split passes them
			for i := range x.Data {
				x.Data[i] = float64(float64((i*5)%13)*0.375) - 2
			}
			mask := mat.New(rows, filters*ol+2)
			for i := range mask.Data {
				mask.Data[i] = maskVals[(i*3)%len(maskVals)]
			}
			for _, pattern := range []string{"specials", "zeros"} {
				dy := mat.New(rows, filters*ol+2)
				for i := range dy.Data {
					v := gradVals[(i*7)%len(gradVals)]
					if f := (i % dy.Cols) / ol; pattern == "zeros" && f%3 != 2 {
						v = []float64{0, negZero}[i%2] // two filters in three see nothing but ±0
					}
					dy.Data[i] = v
				}
				for _, rectified := range []bool{true, false} {
					c.bx, c.by, c.rectified = x, mask, rectified
					name := fmt.Sprintf("F=%d ol=%d %s rectified=%v", filters, ol, pattern, rectified)
					seedW, seedB := make([]float64, 4*filters), make([]float64, filters)
					for i := range seedW {
						seedW[i] = []float64{negZero, negZero, 0.5, negZero}[i%4]
					}
					for i := range seedB {
						seedB[i] = []float64{negZero, 1, negZero}[i%3]
					}
					copy(c.w.Grad, seedW)
					copy(c.b.Grad, seedB)
					_, pass := c.rectMask(dy)
					rect := mask
					if !rectified {
						rect = dy
					}
					for row := 0; row < rows; row++ {
						for f := 0; f < filters; f++ {
							seedB[f] = filterGradRow(seedW[4*f:4*f+4], seedB[f], dy.Row(row)[f*ol:(f+1)*ol],
								rect.Row(row)[f*ol:(f+1)*ol], x.Row(row), 1, pass)
						}
					}
					c.filterGrads(dy)
					sameFloats(t, name+" weights", c.w.Grad, seedW)
					sameFloats(t, name+" biases", c.b.Grad, seedB)
				}
			}
		}
	}
}
