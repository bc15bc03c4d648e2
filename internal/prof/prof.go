// Package prof wires the standard -cpuprofile/-memprofile hooks into the
// training entry point (cmd/experiments) so perf work starts from a profile
// instead of a guess.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling if cpuPath is non-empty and returns a stop
// function that ends the CPU profile and, if memPath is non-empty, writes a
// GC-settled heap profile. Call stop once on the normal exit path (profiles
// are deliberately not written when the process aborts early); with both
// paths empty Start is a no-op and stop does nothing.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("prof: %w", err)
			}
			// Settle the heap so the profile reflects retained memory, not
			// whatever garbage the last benchmark round left behind.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("prof: write heap profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("prof: %w", err)
			}
		}
		return nil
	}, nil
}
