//go:build !amd64 || purego

package mat

import "testing"

// kernelTiers lists the kernel tiers this build can run: the portable loops.
func kernelTiers() []string { return []string{"generic"} }

// forceTier skips any tier but the one this build has.
func forceTier(tb testing.TB, tier string) {
	tb.Helper()
	if tier != "generic" {
		tb.Skipf("this build has no %s tier (built without assembly)", tier)
	}
}
