//go:build race

package rl

// raceEnabled reports whether the race detector is compiled in. It slows the
// per-row oracle a hundredfold, so the oracle test runs its lean width set
// under it: the detector is there for the rounds' worker and apply
// concurrency, which every width exercises alike.
const raceEnabled = true
