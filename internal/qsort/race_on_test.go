//go:build race

package qsort

// raceEnabled reports that this test binary runs under the race detector
// (under which sync.Pool drops a quarter of what it is given, so pooled
// allocation bounds do not hold).
const raceEnabled = true
