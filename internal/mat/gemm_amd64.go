//go:build !purego

package mat

// Assembly kernels (gemm_amd64.s), chosen once at init from CPUID. Both keep
// one output column per vector lane, so every element's accumulation stays
// sequential — see the exactness contract in gemm.go.

//go:noescape
func dotPack16AVX(a, bp, acc []float64)

//go:noescape
func dotPack16x8AVX512(a []float64, lda int, bp []float64, c []float64, ldc int)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// haveAVX reports whether the CPU supports AVX and the OS preserves YMM
// state across context switches (OSXSAVE + XCR0 bits 1-2). haveAVX512 asks
// the same of AVX-512F: CPUID.7.0:EBX bit 16, and XCR0 bits 5-7 (opmask,
// ZMM0-15 upper halves, ZMM16-31) on top of the AVX ones.
var haveAVX, haveAVX512 = func() (avx, avx512 bool) {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 1 {
		return false, false
	}
	const (
		osxsave = 1 << 27
		avxBit  = 1 << 28
		avx512f = 1 << 16
	)
	_, _, ecx, _ := cpuidAsm(1, 0)
	if ecx&osxsave == 0 || ecx&avxBit == 0 {
		return false, false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&6 != 6 {
		return false, false
	}
	if maxID < 7 {
		return true, false
	}
	_, ebx, _, _ := cpuidAsm(7, 0)
	return true, ebx&avx512f != 0 && xcr0&0xE6 == 0xE6
}()

// KernelISA names the widest kernel tier the packed GEMM runs on this CPU:
// "avx512", "avx" or "generic".
func KernelISA() string {
	switch {
	case haveAVX512:
		return "avx512"
	case haveAVX:
		return "avx"
	}
	return "generic"
}

func dotPack16(a, bp, acc []float64) {
	if haveAVX {
		dotPack16AVX(a, bp, acc)
		return
	}
	dotPack16Generic(a, bp, acc)
}

// dotPackRows takes rows [r0, r1) of a (row stride lda) through k-steps
// [k0, k1) of one packed tile — seg is that tile's segment, 16·(k1-k0) long —
// accumulating into columns [j, j+16) of the same rows of c (row stride
// ldc). With AVX-512 the rows go eight at a time through the register-blocked
// kernel; what is left over, and every row on any other CPU, goes through
// dotPack16. Rows are independent output elements, so how they are grouped
// changes no element's add sequence.
func dotPackRows(c []float64, ldc, j int, a []float64, lda, k0, k1 int, seg []float64, r0, r1 int) {
	r := r0
	if haveAVX512 {
		for ; r+8 <= r1; r += 8 {
			dotPack16x8AVX512(a[r*lda+k0:(r+7)*lda+k1], lda, seg[:(k1-k0)*packLanes],
				c[r*ldc+j:(r+7)*ldc+j+packLanes], ldc)
		}
	}
	for ; r < r1; r++ {
		dotPack16(a[r*lda+k0:r*lda+k1], seg, c[r*ldc+j:r*ldc+j+packLanes])
	}
}
