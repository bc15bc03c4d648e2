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
// flags, so tests that force a tier must not run in parallel. It reaches the
// packed products and Conv4To, which read the flags per call; laneKernels
// (smallbatch.go) copied haveAVX at init and keeps its value.
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
