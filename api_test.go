package repro_test

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// apiPackages are the packages whose exported surface api.txt pins: the
// public API and the scheduler it re-exports.
var apiPackages = []struct{ dir, path string }{
	{".", "repro"},
	{"internal/core", "repro/internal/core"},
}

// TestAPI renders the exported declarations of apiPackages, one line per
// declaration in the style of the Go distribution's api/go1.*.txt files, and
// compares the rendering to the committed api.txt. A change to the surface
// changes api.txt in the same diff; on a mismatch the test prints the new
// rendering, which becomes the new api.txt once the change is intended.
func TestAPI(t *testing.T) {
	var lines []string
	for _, p := range apiPackages {
		lines = append(lines, renderAPI(t, p.dir, p.path)...)
	}
	checkGolden(t, "api.txt", lines)
}

// checkGolden compares lines, sorted, with the committed file name, one line
// each. On a mismatch it reports the lines gained (+) and lost (-) and prints
// the new content, which becomes the file once the change is intended.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	var diff strings.Builder
	for _, l := range lines {
		if !slices.Contains(wantLines, l) {
			diff.WriteString("+" + l + "\n")
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(lines, l) {
			diff.WriteString("-" + l + "\n")
		}
	}
	t.Errorf("%s is out of date:\n%s\nnew %s:\n%s", name, diff.String(), name, got)
}

// renderAPI returns one line per exported declaration of the package in dir.
func renderAPI(t *testing.T, dir, path string) []string {
	t.Helper()
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, path)
	if err != nil {
		t.Fatal(err)
	}
	r := apiRenderer{fset: fset, prefix: "pkg " + path + ", "}
	r.values("const", pkg.Consts)
	r.values("var", pkg.Vars)
	r.funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		r.typ(typ.Decl.Specs[0].(*ast.TypeSpec))
		r.values("const", typ.Consts)
		r.values("var", typ.Vars)
		r.funcs(typ.Funcs)
		r.funcs(typ.Methods)
	}
	return r.lines
}

type apiRenderer struct {
	fset   *token.FileSet
	prefix string
	lines  []string
}

func (r *apiRenderer) add(s string) { r.lines = append(r.lines, r.prefix+s) }

// expr prints a type or value expression on one line; a function type
// (a callback parameter or field) loses its parameter names.
func (r *apiRenderer) expr(e ast.Expr) string {
	if ft, ok := e.(*ast.FuncType); ok {
		return "func" + r.signature(ft)
	}
	var b bytes.Buffer
	if err := printer.Fprint(&b, r.fset, e); err != nil {
		panic(err)
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// values renders a const or var block: each exported name with its type as
// written (a const inherits the type of the spec it repeats) and its value
// where the spec gives one.
func (r *apiRenderer) values(kind string, vals []*doc.Value) {
	for _, v := range vals {
		var typ ast.Expr
		for _, spec := range v.Decl.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Type != nil || len(vs.Values) > 0 {
				typ = vs.Type
			}
			for i, name := range vs.Names {
				if !name.IsExported() {
					continue
				}
				s := kind + " " + name.Name
				if typ != nil {
					s += " " + r.expr(typ)
				}
				if i < len(vs.Values) {
					s += " = " + r.expr(vs.Values[i])
				}
				r.add(s)
			}
		}
	}
}

func (r *apiRenderer) funcs(fs []*doc.Func) {
	for _, f := range fs {
		d := f.Decl
		s := "func "
		if d.Recv != nil {
			s = "method (" + r.expr(d.Recv.List[0].Type) + ") "
		}
		r.add(s + d.Name.Name + r.signature(d.Type))
	}
}

// signature renders a function type's type parameters, parameter types and
// result types without their names.
func (r *apiRenderer) signature(ft *ast.FuncType) string {
	s := ""
	if ft.TypeParams != nil {
		s = "[" + r.fieldList(ft.TypeParams, true) + "]"
	}
	s += "(" + r.fieldList(ft.Params, false) + ")"
	if ft.Results == nil || len(ft.Results.List) == 0 {
		return s
	}
	res := r.fieldList(ft.Results, false)
	if len(ft.Results.List) == 1 && len(ft.Results.List[0].Names) <= 1 {
		return s + " " + res
	}
	return s + " (" + res + ")"
}

// fieldList renders a parameter list as its types, one per name; type
// parameters keep their names.
func (r *apiRenderer) fieldList(fl *ast.FieldList, named bool) string {
	var parts []string
	for _, f := range fl.List {
		typ := r.expr(f.Type)
		if named {
			var names []string
			for _, n := range f.Names {
				names = append(names, n.Name)
			}
			parts = append(parts, strings.Join(names, ", ")+" "+typ)
			continue
		}
		for range max(1, len(f.Names)) {
			parts = append(parts, typ)
		}
	}
	return strings.Join(parts, ", ")
}

// typ renders a type declaration: one line for the type, and for a struct
// or an interface one more per exported field or method.
func (r *apiRenderer) typ(ts *ast.TypeSpec) {
	name := ts.Name.Name
	if ts.TypeParams != nil {
		name += "[" + r.fieldList(ts.TypeParams, true) + "]"
	}
	if ts.Assign.IsValid() {
		r.add("type " + name + " = " + r.expr(ts.Type))
		return
	}
	switch tt := ts.Type.(type) {
	case *ast.StructType:
		r.add("type " + name + " struct")
		for _, f := range tt.Fields.List {
			if len(f.Names) == 0 {
				r.add("type " + name + " struct, embedded " + r.expr(f.Type))
			}
			for _, n := range f.Names {
				if n.IsExported() {
					r.add("type " + name + " struct, " + n.Name + " " + r.expr(f.Type))
				}
			}
		}
	case *ast.InterfaceType:
		r.add("type " + name + " interface")
		for _, m := range tt.Methods.List {
			if len(m.Names) == 0 {
				r.add("type " + name + " interface, embedded " + r.expr(m.Type))
				continue
			}
			for _, n := range m.Names {
				if n.IsExported() {
					r.add("type " + name + " interface, " + n.Name + r.signature(m.Type.(*ast.FuncType)))
				}
			}
		}
	default:
		r.add("type " + name + " " + r.expr(ts.Type))
	}
}
