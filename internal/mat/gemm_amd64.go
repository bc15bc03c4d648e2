//go:build !purego

package mat

// Assembly kernels (gemm_amd64.s), chosen once at init from CPUID. Both keep
// one output column per vector lane, so every element's accumulation stays
// sequential, one fused multiply-add per term — see the exactness contract
// in gemm.go.

//go:noescape
func dotPack16AVX(a []float64, sa int, b []float64, sb int, acc []float64, k int, zero bool)

//go:noescape
func dotPack16x8AVX512(a []float64, lda, sa int, b []float64, sb int, c []float64, ldc, k int, zero bool)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// haveAVX reports whether the CPU has AVX and FMA3 and the OS preserves YMM
// state; haveAVX512 asks the same of AVX-512F (see cpuTier).
var haveAVX, haveAVX512 = func() (avx, avx512 bool) {
	maxID, _, _, _ := cpuidAsm(0, 0)
	_, _, ecx1, _ := cpuidAsm(1, 0)
	_, ebx7, _, _ := cpuidAsm(7, 0) // past maxID this reads another leaf, which cpuTier ignores
	var xcr0 uint32
	if ecx1&cpuidOSXSAVE != 0 { // XGETBV faults where the OS has not enabled it
		xcr0, _ = xgetbvAsm()
	}
	return cpuTier(maxID, ecx1, ebx7, xcr0)
}()

// The CPUID and XCR0 bits cpuTier reads.
const (
	cpuidFMA     = 1 << 12 // CPUID.1:ECX
	cpuidOSXSAVE = 1 << 27 // CPUID.1:ECX
	cpuidAVX     = 1 << 28 // CPUID.1:ECX
	cpuidAVX512F = 1 << 16 // CPUID.7.0:EBX
	xcr0YMM      = 0x06    // SSE and AVX state
	xcr0ZMM      = 0xE6    // and opmask, ZMM0-15 upper halves, ZMM16-31
)

// cpuTier decides the kernel tiers from the register words: maxID is
// CPUID.0:EAX, ecx1 CPUID.1:ECX, ebx7 CPUID.7.0:EBX and xcr0 XCR0's low
// word (each zero where the CPU or OS does not report it). The AVX tier
// needs AVX, FMA3 — every kernel term is one VFMADD231PD — OSXSAVE and the
// OS saving YMM state; the AVX-512 tier needs that, AVX-512F (which
// includes its FMA) and the OS saving the opmask and ZMM state.
func cpuTier(maxID, ecx1, ebx7, xcr0 uint32) (avx, avx512 bool) {
	const need = cpuidFMA | cpuidOSXSAVE | cpuidAVX
	if maxID < 1 || ecx1&need != need || xcr0&xcr0YMM != xcr0YMM {
		return false, false
	}
	return true, maxID >= 7 && ebx7&cpuidAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
}

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

func dotPack16(a []float64, sa int, b []float64, sb int, acc []float64, k int, zero bool) {
	if haveAVX {
		dotPack16AVX(a, sa, b, sb, acc, k, zero)
		return
	}
	dotPack16Generic(a, sa, b, sb, acc, k, zero)
}

// dotPackRows takes rows [r0, r1) of a through k k-steps of one column tile
// of b — a and b start at the block's first step, b at the tile's first
// lane — accumulating into the tile's 16 columns of the same rows of c (c
// starts at the tile's first column, row stride ldc; with zero set the sums
// start at +0 instead). With AVX-512 the rows go eight at a time through the
// register-blocked kernel; what is left over, and every row on any other
// CPU, goes through dotPack16. Rows are independent output elements, so how
// they are grouped changes no element's add sequence. Each kernel call gets
// exactly the span it reads (k ≥ 1), so no read lands past an operand.
func dotPackRows(c []float64, ldc int, a lhs, b rhs, k, r0, r1 int, zero bool) {
	bk := b.data[:(k-1)*b.ks+packLanes]
	span := (k-1)*a.ks + 1
	r := r0
	if haveAVX512 {
		for ; r+8 <= r1; r += 8 {
			dotPack16x8AVX512(a.data[r*a.rs:r*a.rs+7*a.rs+span], a.rs, a.ks, bk, b.ks,
				c[r*ldc:r*ldc+7*ldc+packLanes], ldc, k, zero)
		}
	}
	for ; r < r1; r++ {
		dotPack16(a.data[r*a.rs:r*a.rs+span], a.ks, bk, b.ks, c[r*ldc:r*ldc+packLanes], k, zero)
	}
}
