//go:build !race

package repro

// raceEnabled reports that this test binary runs under the race detector.
const raceEnabled = false
