package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// noAlloc holds functions annotated //repro:noalloc to the compiler's own
// verdict: it builds the package with -gcflags=-m and reports every
// "escapes to heap" / "moved to heap" the escape analysis prints for a
// position inside such a function — a composite literal whose address
// leaves, a value boxed into an interface, a stored closure, a string built
// at run time, a make or new that outlives the frame, and equally a value
// that only moves to the heap because a call defeated inlining. What the
// compiler decides to keep on the stack (a make of constant size that does
// not escape) is not reported.
//
// Three constructs allocate at run time without the compiler saying so and
// are rejected by syntax: append (growth is decided by the capacity found at
// run time), assignment to a map element, and the go statement. A site that
// is deliberately allocating (a pool's refill path, a capacity-bounded
// append) carries //repro:allow with a one-line justification; that is the
// only waiver, for both halves.
func noAlloc(pkg *Package, ix *Index) []Diagnostic {
	c := &noallocCheck{pkg: pkg, ix: ix}
	var fns []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && ix.DeclHas(fd.Name.Pos(), KindNoAlloc) {
				fns = append(fns, fd)
			}
		}
	}
	if len(fns) == 0 {
		return nil // nothing declared: no compiler run for this package
	}
	for _, fd := range fns {
		c.unreported(fd)
	}
	c.escapes(fns)
	return c.diags
}

// noallocCheck carries one package's run: the package, the module-wide
// directive index, and the findings so far.
type noallocCheck struct {
	pkg   *Package
	ix    *Index
	diags []Diagnostic
}

func (c *noallocCheck) report(pos token.Pos, msg string) {
	c.diags = append(c.diags, Diagnostic{Pos: c.pkg.Fset.Position(pos), Analyzer: "noalloc", Message: msg})
}

// alloc reports one allocation in fd unless its line is waived.
func (c *noallocCheck) alloc(fd *ast.FuncDecl, pos token.Pos, what string) {
	if !c.ix.SiteAllowed(KindAllow, c.pkg.Fset.Position(pos)) {
		c.report(pos, what+" in //repro:noalloc function "+fd.Name.Name)
	}
}

// unreported flags the allocating constructs escape analysis has no message
// for.
func (c *noallocCheck) unreported(fd *ast.FuncDecl) {
	info := c.pkg.Info
	flag := func(pos token.Pos, what string) { c.alloc(fd, pos, what) }
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					flag(x.Pos(), "append may allocate")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok && isMapExpr(info, idx.X) {
					flag(lhs.Pos(), "map write may allocate")
				}
			}
		case *ast.GoStmt:
			flag(x.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
}

// escapeRe matches the two escape-analysis messages that mean a heap
// allocation ("leaking param" and "does not escape" do not).
var escapeRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+ escapes to heap|moved to heap: .+)$`)

// escapes compiles the package and reports the heap allocations the
// compiler places inside fns, all of which are declared in c.pkg.
func (c *noallocCheck) escapes(fns []*ast.FuncDecl) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "-o", os.DevNull, ".")
	cmd.Dir = c.pkg.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		c.report(fns[0].Pos(), fmt.Sprintf("go build -gcflags=-m in %s: %v\n%s", cmd.Dir, err, out))
		return
	}
	seen := make(map[string]bool) // the compiler repeats a line for each instantiation of a generic function
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || seen[m[0]] {
			continue
		}
		seen[m[0]] = true
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		for _, fd := range fns {
			tf := c.pkg.Fset.File(fd.Pos())
			if !sameFile(m[1], tf.Name()) || ln < tf.Line(fd.Pos()) || ln > tf.Line(fd.Body.Rbrace) {
				continue
			}
			c.alloc(fd, tf.LineStart(ln)+token.Pos(col-1), m[4])
			break
		}
	}
}

// sameFile reports whether printed, a file name from the go command's
// output, names the file at the absolute path abs. The go command shortens
// names relative to the directory it ran in when the package was first
// compiled and replays that text from its build cache afterwards, so printed
// may be absolute or relative to a directory that is not known here; either
// way what follows its leading ./ and ../ elements is a tail of abs.
func sameFile(printed, abs string) bool {
	printed = filepath.ToSlash(printed)
	for strings.HasPrefix(printed, "./") || strings.HasPrefix(printed, "../") {
		printed = printed[strings.Index(printed, "/")+1:]
	}
	return strings.HasSuffix(filepath.ToSlash(abs), "/"+strings.TrimPrefix(printed, "/"))
}

func isMapExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Map)
	return ok
}
