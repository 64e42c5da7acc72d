// Package asm holds TestNoalloc's //repro:asm cases: each rule reports what
// it exists to catch, and a line that keeps it passes.
package asm

//go:noinline
func helper() {}

func calls() {
	helper() //repro:asm cmp // want `CALL repro/testdata/noalloc/asm\.helper`
}

func branches(a, b int32) {
	if a < b { //repro:asm cmp // want `CMPL followed by J`
		helper()
	}
}

func nothing() {
	//repro:asm cmp // want `constrains no instruction`
}

func less(a, b int32) bool {
	return a < b //repro:asm cmp
}
