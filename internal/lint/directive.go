package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive kinds. The machine-readable annotation vocabulary is the small
// closed set below; anything else after "//repro:" is a load-time error so
// typos cannot silently disable a check.
const (
	KindNoAlloc = "noalloc" // decl: function must not heap-allocate (the compiler's escape analysis, plus append, map writes and go)
	KindAllow   = "allow"   // site: one allocation inside a noalloc function is deliberate
)

const directivePrefix = "//repro:"

var validKinds = map[string]bool{
	KindNoAlloc: true,
	KindAllow:   true,
}

// declKinds are the kinds that attach to a function declaration; the rest
// attach to a source line (site).
var declKinds = map[string]bool{
	KindNoAlloc: true,
}

// A Directive is one parsed //repro: annotation.
type Directive struct {
	Kind string
	Arg  string // free-text justification / argument, may be empty
	Pos  token.Position

	cpos token.Pos // position of the directive comment itself
}

// A Record ties a directive to its package and enclosing top-level
// declaration, the churn-stable identity the manifest pins.
type Record struct {
	PkgPath string
	Decl    string // e.g. "(*worker).getCtx", or the enclosing declaration of a site directive
	Kind    string
}

// Index is the module-wide directive table: declaration-level directives
// keyed by the declared identifier's position, site-level directives keyed
// by file and line, plus the flat record list the manifest is built from.
type Index struct {
	decl map[token.Pos]map[string]*Directive
	site map[string]map[int][]*Directive
	all  []Record
	errs []Diagnostic
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		decl: make(map[token.Pos]map[string]*Directive),
		site: make(map[string]map[int][]*Directive),
	}
}

// Errors returns the malformed-directive findings collected while
// indexing (unknown kinds, decl directives placed on no declaration).
func (ix *Index) Errors() []Diagnostic { return ix.errs }

// DeclHas reports whether the declaration whose name identifier sits at pos
// carries the given kind.
func (ix *Index) DeclHas(pos token.Pos, kind string) bool {
	return ix.decl[pos][kind] != nil
}

// SiteAllowed reports whether a site directive of the given kind covers the
// resolved position: on the same line, or as a standalone comment ending on
// the line directly above.
func (ix *Index) SiteAllowed(kind string, pos token.Position) bool {
	for _, d := range ix.site[pos.Filename][pos.Line] {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// Records returns the flat directive inventory, sorted.
func (ix *Index) Records() []Record {
	out := append([]Record(nil), ix.all...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.Decl != b.Decl {
			return a.Decl < b.Decl
		}
		return a.Kind < b.Kind
	})
	return out
}

// parseDirectives extracts the //repro: directives of one comment group.
func parseDirectives(g *ast.CommentGroup) []*Directive {
	if g == nil {
		return nil
	}
	var out []*Directive
	for _, c := range g.List {
		text := c.Text
		if !strings.HasPrefix(text, directivePrefix) {
			continue
		}
		rest := strings.TrimPrefix(text, directivePrefix)
		kind, arg, _ := strings.Cut(rest, " ")
		out = append(out, &Directive{Kind: kind, Arg: strings.TrimSpace(arg), cpos: c.Pos()})
	}
	return out
}

// AddPackage indexes every directive of the package's files. Call once per
// loaded package before Check; all packages of a run share one index, whose
// records the manifest pins module-wide.
func (ix *Index) AddPackage(pkg *Package) {
	for _, f := range pkg.Files {
		ix.addFile(pkg, f)
	}
}

func (ix *Index) addFile(pkg *Package, f *ast.File) {
	fset := pkg.Fset
	// Parse each comment group exactly once: doc comments are shared between
	// the declarations and f.Comments, and the declared set below tells the
	// site pass which directives a declaration already claimed.
	groups := make(map[*ast.CommentGroup][]*Directive)
	for _, g := range f.Comments {
		if ds := parseDirectives(g); len(ds) > 0 {
			groups[g] = ds
		}
	}
	declared := make(map[*Directive]bool)

	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		namePos := fd.Name.Pos()
		for _, d := range groups[fd.Doc] {
			if !declKinds[d.Kind] {
				continue
			}
			d.Pos = fset.Position(namePos)
			m := ix.decl[namePos]
			if m == nil {
				m = make(map[string]*Directive)
				ix.decl[namePos] = m
			}
			m[d.Kind] = d
			declared[d] = true
			ix.all = append(ix.all, Record{PkgPath: pkg.Path, Decl: funcDeclName(fd), Kind: d.Kind})
		}
	}

	// Site-level directives: every directive comment covers its own line and
	// (for a standalone comment) the line directly below the comment group.
	fileName := fset.Position(f.Pos()).Filename
	lines := ix.site[fileName]
	if lines == nil {
		lines = make(map[int][]*Directive)
		ix.site[fileName] = lines
	}
	for _, g := range f.Comments {
		ds := groups[g]
		if len(ds) == 0 {
			continue
		}
		endLine := fset.Position(g.End()).Line
		for _, d := range ds {
			if declared[d] {
				continue
			}
			d.Pos = fset.Position(d.cpos)
			if !validKinds[d.Kind] {
				ix.errs = append(ix.errs, Diagnostic{
					Pos:      d.Pos,
					Analyzer: "directives",
					Message:  fmt.Sprintf("unknown //repro: directive %q (known: allow, noalloc)", d.Kind),
				})
				continue
			}
			if declKinds[d.Kind] {
				ix.errs = append(ix.errs, Diagnostic{
					Pos:      d.Pos,
					Analyzer: "directives",
					Message:  fmt.Sprintf("//repro:%s is not attached to a function declaration", d.Kind),
				})
				continue
			}
			own := d.Pos.Line
			lines[own] = append(lines[own], d)
			lines[endLine+1] = append(lines[endLine+1], d)
			ix.all = append(ix.all, Record{PkgPath: pkg.Path, Decl: enclosingDecl(f, g.Pos()), Kind: d.Kind})
		}
	}
}

// funcDeclName renders a FuncDecl's manifest name, e.g. "(*worker).getCtx".
func funcDeclName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "(" + typeExprString(d.Recv.List[0].Type) + ")." + d.Name.Name
}

// typeExprString renders a receiver type expression compactly.
func typeExprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeExprString(t.X)
	case *ast.IndexExpr:
		return typeExprString(t.X) + "[...]"
	case *ast.IndexListExpr:
		return typeExprString(t.X) + "[...]"
	default:
		return "?"
	}
}

// enclosingDecl names the top-level declaration containing pos, for the
// manifest identity of site-level directives.
func enclosingDecl(f *ast.File, pos token.Pos) string {
	for _, decl := range f.Decls {
		if decl.Pos() <= pos && pos <= decl.End() {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				return funcDeclName(d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && spec.Pos() <= pos && pos <= spec.End() {
						return ts.Name.Name
					}
				}
			}
		}
	}
	return "package"
}
