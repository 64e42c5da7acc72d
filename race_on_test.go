//go:build race

package repro

// raceEnabled reports that this test binary runs under the race detector
// (whose instrumentation slows the sorts that allocation tests repeat).
const raceEnabled = true
