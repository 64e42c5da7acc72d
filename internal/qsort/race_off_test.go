//go:build !race

package qsort

// raceEnabled reports that this test binary runs under the race detector.
const raceEnabled = false
