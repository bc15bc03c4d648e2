//go:build !amd64 || purego

package mat

// The portable kernels: every build that is not amd64, and amd64 under
// -tags purego — the lane that compiles and tests these loops as the oracle
// the assembly is held to (make check-purego).

// KernelISA names the kernel tier the packed GEMM runs: without assembly,
// "generic".
func KernelISA() string { return "generic" }

// dotPackRows takes rows [r0, r1) of a through k-steps [k0, k1) of one
// packed tile into columns [j, j+16) of c, a row at a time (see
// gemm_amd64.go).
func dotPackRows(c []float64, ldc, j int, a []float64, lda, k0, k1 int, seg []float64, r0, r1 int) {
	for r := r0; r < r1; r++ {
		dotPack16Generic(a[r*lda+k0:r*lda+k1], seg, c[r*ldc+j:r*ldc+j+packLanes])
	}
}
