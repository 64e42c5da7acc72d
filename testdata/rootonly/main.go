// Command rootonly imports only the root package: TestNoalloc reads the
// kernels' int32 copies as a program outside this module compiles them.
package main

import "repro"

func main() {
	r := repro.NewRuntime[int32](repro.Options{P: 1})
	defer r.Close()
	data := repro.GenerateInput(repro.Random, 1<<12, 1)
	r.SortMixedMode(data, repro.MMOptions{})
	r.SortSamplesort(data, repro.SSOptions{})
	r.Filter(data, make([]int32, len(data)), func(v int32) bool { return v&1 == 0 })
}
