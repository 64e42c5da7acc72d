// Package directives holds TestNoalloc's directive cases: the vocabulary is
// closed, so a misspelled or retired kind fails instead of silently
// disabling a check, and a //repro:noalloc must sit on a function
// declaration, a //repro:allow inside one.
package directives

// A typo must not pass silently.
//
//repro:noaloc // want `unknown //repro: directive "noaloc"`
func misspelled() {}

// A retired kind is unknown too: the barrier check is gone, so a leftover
// annotation fails loudly instead of promising a check.
//
//repro:barrier // want `unknown //repro: directive "barrier"`
func collective() {}

func stray() {
	//repro:noalloc // want `//repro:noalloc is not attached to a function declaration`
	_ = 0 //repro:allow // want `//repro:allow outside a //repro:noalloc function`
}

//repro:noalloc
func properlyAttached() {}
