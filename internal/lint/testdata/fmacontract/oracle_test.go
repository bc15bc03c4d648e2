package fmacontracttest

import "math"

func oracle(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i] // want "floating-point product added unrounded"
		s = math.FMA(a[i], b[i], s)
	}
	return s
}

func storedOracle(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		p := a[i] * b[i] // want "product stored in p"
		s += p
	}
	return s
}
