// Package gen holds TestNoalloc's generic case. The compiler analyses a
// generic body's escapes only while a package that instantiates it compiles,
// and the only one that instantiates Box is testdata/noalloc, so both
// findings below are printed by that package's build, at this file's
// positions: the shape-instantiated body's and its wrapper's, at the
// declaration.
package gen

var Sink any

type Box[T any] struct{}

//repro:noalloc
func (*Box[T]) Put() { // want `escapes to heap in //repro:noalloc function Put`
	Sink = new(T) // want `new\(.*\) escapes to heap in //repro:noalloc function Put`
}
