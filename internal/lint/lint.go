// Package lint implements reprolint, the project's suite of static
// analyzers. The analyzers mechanically enforce the concurrency and
// hot-path conventions the scheduler's correctness and paper-faithful
// performance rest on — conventions that used to live only in comments and
// reviewers' heads:
//
//   - noalloc: functions annotated //repro:noalloc are held to the
//     compiler's escape analysis (go build -gcflags=-m: whatever it moves to
//     the heap inside such a function is a finding) plus the three
//     constructs it has no message for — append, map writes, go — with a
//     per-site //repro:allow escape hatch carrying a justification.
//   - barrier: team collectives annotated //repro:barrier must reach the
//     team barrier (ctx.Barrier() or a call to another annotated
//     collective) on every return path, except the documented team-size-1
//     sequential-oracle early returns.
//
// Mixed plain/atomic access needs no analyzer: every atomically accessed
// field is a typed atomic (atomic.Uint64 and friends), so the compiler
// rejects a plain access and go vet's copylocks a copy; scripts/check.sh
// keeps the function-style sync/atomic calls out of non-test code.
//
// Everything is built on the standard library alone (go/parser, go/ast,
// go/types with the source importer) and the go command on PATH; see
// README.md for the directive vocabulary and for what each analyzer
// deliberately does not prove.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoAlloc, Barrier}
}

// AnalyzerByName returns the named analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer run over one package: the type-checked
// package, the module-wide directive index, and the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Index    *Index

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether a site-level directive of the given kind covers
// pos (same line, or a standalone directive comment directly above).
func (p *Pass) Allowed(kind string, pos token.Pos) bool {
	return p.Index.SiteAllowed(kind, p.Pkg.Fset.Position(pos))
}

// Run applies the analyzers to the packages under one shared directive
// index and returns the findings sorted by position. Packages must share
// the index's FileSet (load them through one Loader).
func Run(analyzers []*Analyzer, pkgs []*Package, ix *Index) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Index: ix, diags: &diags}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
