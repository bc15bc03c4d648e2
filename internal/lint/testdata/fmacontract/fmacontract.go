// Package fmacontracttest seeds multiply-add spellings for the analyzer
// tests.
package fmacontracttest

import "math"

const half = 0.5

func kernels(x, y, z float64, xs []float64, f float32, n, m int) float64 {
	s := x*y + z                     // want "floating-point product added unrounded"
	s = z - x*y                      // want "floating-point product added unrounded"
	s += x * y                       // want "floating-point product added unrounded"
	s -= xs[0] * xs[1]               // want "floating-point product added unrounded"
	s = (x * y) + z                  // want "floating-point product added unrounded"
	s += x * y * z                   // want "floating-point product added unrounded"
	s += float64(f*f) + float64(f)*2 // want "floating-point product added unrounded"

	s = math.FMA(x, y, s) // fused: the kernel contract
	s = float64(x*y) + z  // rounded first: the compiler may not fuse it
	s -= float64(x * y)   // the same, compound
	s += x / y            // a quotient is never fused
	s += half * 2         // a constant product is exact
	s += float64(n*m + n) // integer products are exact
	return s
}

func stored(x, y, z float64, xs []float64) float64 {
	p := x * y          // want "product stored in p and added in a later statement"
	q := float64(x * y) // rounded first
	r := x * y          // only ever multiplied
	v := x * z          // want "product stored in v"
	t := (x * y)        // want "product stored in t"
	t -= z
	s := z
	s += p
	s -= q
	s = s + v
	p = xs[0] * xs[1] // not added after this store
	r, q = y*z, x*z   // want "product stored in q"
	return float64(s*r*p) + q - t
}
