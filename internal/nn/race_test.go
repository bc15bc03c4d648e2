//go:build race

package nn

// raceEnabled reports whether the race detector is compiled in. It slows the
// per-row oracle loops a hundredfold, so the widest bitwise matrices run
// their lean form under it (see leanMatrix): what the detector is there to
// see is the fan-out, which every width exercises alike.
const raceEnabled = true
