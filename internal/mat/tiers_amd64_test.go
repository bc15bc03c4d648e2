//go:build !purego

package mat

import "testing"

// kernelTiers lists the kernel tiers this CPU can run, narrowest first.
func kernelTiers() []string {
	tiers := []string{"generic"}
	if haveAVX {
		tiers = append(tiers, "avx")
	}
	if haveAVX512 {
		tiers = append(tiers, "avx512")
	}
	return tiers
}

// forceTier pins the package to one kernel tier until the test ends, and
// skips the test on a CPU that lacks it. Nothing outside tests writes the two
// flags, so tests that force a tier must not run in parallel. Every kernel
// reads the flags per call, so a forced tier reaches all of them.
func forceTier(tb testing.TB, tier string) {
	tb.Helper()
	avx, avx512 := haveAVX, haveAVX512
	want := map[string][2]bool{"generic": {false, false}, "avx": {true, false}, "avx512": {true, true}}[tier]
	if want[0] && !avx || want[1] && !avx512 {
		tb.Skipf("this CPU has no %s tier (widest: %s)", tier, KernelISA())
	}
	tb.Cleanup(func() { haveAVX, haveAVX512 = avx, avx512 })
	haveAVX, haveAVX512 = want[0], want[1]
}

// TestCPUTier pins the tier decision to the CPUID and XCR0 bits it reads:
// every term of the AVX kernels is one VFMADD231PD, so AVX without FMA3 is
// the generic tier, and a tier whose register state the OS does not save is
// not taken.
func TestCPUTier(t *testing.T) {
	const (
		avxECX = cpuidOSXSAVE | cpuidAVX
		fmaECX = avxECX | cpuidFMA
	)
	for _, c := range []struct {
		name                    string
		maxID, ecx1, ebx7, xcr0 uint32
		want                    string
	}{
		{"no CPUID leaf 1", 0, fmaECX, cpuidAVX512F, xcr0ZMM, "generic"},
		{"AVX without FMA", 7, avxECX, 0, xcr0YMM, "generic"},
		{"AVX-512F without FMA", 7, avxECX, cpuidAVX512F, xcr0ZMM, "generic"},
		{"FMA without AVX", 7, cpuidOSXSAVE | cpuidFMA, 0, xcr0YMM, "generic"},
		{"AVX and FMA without OSXSAVE", 7, cpuidAVX | cpuidFMA, 0, 0, "generic"},
		{"the OS does not save YMM state", 7, fmaECX, 0, 0x02, "generic"},
		{"AVX and FMA", 7, fmaECX, 0, xcr0YMM, "avx"},
		{"AVX and FMA, no leaf 7", 6, fmaECX, cpuidAVX512F, xcr0ZMM, "avx"},
		{"AVX-512F, the OS does not save ZMM state", 7, fmaECX, cpuidAVX512F, xcr0YMM, "avx"},
		{"AVX-512F, no opmask state", 7, fmaECX, cpuidAVX512F, xcr0ZMM &^ 0x20, "avx"},
		{"AVX-512F with ZMM state", 7, fmaECX, cpuidAVX512F, xcr0ZMM, "avx512"},
	} {
		avx, avx512 := cpuTier(c.maxID, c.ecx1, c.ebx7, c.xcr0)
		got := "generic"
		switch {
		case avx512:
			got = "avx512"
		case avx:
			got = "avx"
		}
		if got != c.want || avx512 && !avx {
			t.Errorf("%s: tier %s (avx %v, avx512 %v), want %s", c.name, got, avx, avx512, c.want)
		}
	}
}
