// Package directives exercises the directive loader itself: the vocabulary
// is closed (typos are load errors, so a misspelled directive can never
// silently disable a check) and declaration-level kinds must actually sit
// on a declaration.
package directives

// want+2 `unknown //repro: directive "noaloc"`
//
//repro:noaloc typo must not pass silently
func misspelled() {}

// A retired kind is unknown too: the barrier analyzer is gone, so a
// leftover annotation fails loudly instead of promising a check.
//
// want+2 `unknown //repro: directive "barrier"`
//
//repro:barrier every member must reach the trailing barrier
func collective() {}

func stray() {
	// want+1 `//repro:noalloc is not attached to a function declaration`
	//repro:noalloc
	_ = 0
}

//repro:noalloc
func properlyAttached() {}
