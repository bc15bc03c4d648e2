//go:build !amd64 || purego

package mat

// The portable kernels: every build that is not amd64, and amd64 under
// -tags purego — the lane that compiles and tests these loops as the oracle
// the assembly is held to (make check-purego).

// KernelISA names the kernel tier the packed GEMM runs: without assembly,
// "generic".
func KernelISA() string { return "generic" }

// dotPackRows takes rows [r0, r1) of a through k k-steps of one column
// tile of b into the tile's 16 columns of c, a row at a time (see
// gemm_amd64.go).
func dotPackRows(c []float64, ldc int, a lhs, b rhs, k, r0, r1 int, zero bool) {
	bk := b.data[:(k-1)*b.ks+packLanes]
	span := (k-1)*a.ks + 1
	for r := r0; r < r1; r++ {
		dotPack16Generic(a.data[r*a.rs:r*a.rs+span], a.ks, bk, b.ks, c[r*ldc:r*ldc+packLanes], k, zero)
	}
}
