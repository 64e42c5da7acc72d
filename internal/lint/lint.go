// Package lint implements reprolint, the project's static check of its
// allocation-free hot paths: functions annotated //repro:noalloc are held to
// the compiler's escape analysis (go build -gcflags=-m: whatever it moves to
// the heap inside such a function is a finding) plus the three constructs it
// has no message for — append, map writes, go — with a per-site
// //repro:allow escape hatch carrying a justification. A committed manifest
// pins every directive, so deleting one fails the gate.
//
// The other conventions need no analyzer. Mixed plain/atomic access: every
// atomically accessed field is a typed atomic (atomic.Uint64 and friends),
// so the compiler rejects a plain access and go vet's copylocks a copy;
// scripts/check.sh keeps the function-style sync/atomic calls out of
// non-test code. A team collective's trailing barrier: every exported
// collective of internal/par and internal/query is its body followed by
// ctx.Barrier(), so no return path of the body can skip it.
//
// Everything is built on the standard library alone (go/parser, go/ast,
// go/types with the source importer) and the go command on PATH; see
// README.md for the directive vocabulary and for what the check
// deliberately does not prove.
package lint

import (
	"cmp"
	"fmt"
	"go/token"
	"slices"
)

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string // "noalloc", or "directives" for a malformed directive
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Check runs noalloc over the packages under one shared directive index and
// returns the findings sorted by position. Packages must share the index's
// FileSet (load them through one Loader).
func Check(pkgs []*Package, ix *Index) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, noAlloc(pkg, ix)...)
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
		)
	})
	return diags
}
