package main

import (
	"context"
	"runtime"
	"testing"
)

// TestSmoke runs every workload end to end at smokeParams sizes — daemon
// build and boot, live HTTP, the oracle checks, and the traced replay — so
// go test keeps the harness compiling and its checks live. The numbers it
// prints mean nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots minicostd; skipped with -short")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("the harness refuses to run the daemon and the generator on one CPU")
	}
	for _, trace := range []int{0, 1} {
		if err := run(context.Background(), options{Workload: "all", Seed: 11, Trace: trace, Smoke: true}); err != nil {
			t.Fatalf("smoke run (trace %d): %v", trace, err)
		}
	}
}
