package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoalloc holds every function annotated //repro:noalloc to allocating
// nothing on the heap and every line annotated //repro:asm to its codegen
// rule, and pins the annotations in noalloc.txt, so deleting one fails as
// surely as breaking it. On a mismatch it prints the new list, which becomes
// noalloc.txt once the change is intended.
//
// What it proves, and what it doesn't. One go build -gcflags=-m of the
// module prints the compiler's escape analysis, and every "escapes to heap"
// or "moved to heap" at a position inside an annotated function is a
// finding: a composite literal whose address leaves, a value boxed into an
// interface, a stored closure, a string built at run time, a make sized at
// run time — and equally a value that escapes only because a callee was not
// inlined, or one that arrives with a callee that was (getCtx's new(Ctx) is
// reported in runSolo too, at the call). What the compiler keeps on the
// stack is not a finding. A generic body's escapes are printed only while a
// package that instantiates it compiles, which one build of every package
// covers. Three constructs allocate without the compiler saying so and are
// flagged on the type-checked source: append (growth depends on the
// capacity found at run time), assignment to a map element, and go. A
// //repro:allow <why> on the line waives that line, for either half. The
// test proves nothing about a callee that is not inlined (annotate it too),
// nor about a compiler that words its diagnostics differently
// (testdata/noalloc pins today's wording). The testing.AllocsPerRun pins,
// such as TestSpawnZeroAlloc, check whole paths at run time, but they divide
// in integers, so less than one allocation per round is invisible to them.
//
// The build's -S listing holds the branch-free kernels to their codegen
// (asmViolation) in every copy: each instantiating package compiles its own,
// and with par.B2i a plain func, a program importing only the root package
// CALLed it from every kernel, 3–4× slower with every test green. So the
// build covers that program (testdata/rootonly) and the benchmark's.
//
// Positions come from the compiler's -trimpath, which rewrites the module
// root to the module path, so an escape prints as repro/<dir>/<file>:line:col
// whichever directory the build ran in or the build cache replays it from;
// a bare file name would be ambiguous, since admission.go and trace.go each
// exist in more than one package.
func TestNoalloc(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The flags reach only the packages named here, so the standard library
	// is not recompiled, as it would be under the go command's -trimpath.
	flags := "-gcflags=-m '-trimpath=" + root + "=>repro'"
	amd64 := runtime.GOARCH == "amd64" // the //repro:asm rules read amd64 instructions
	if amd64 {
		flags = "-gcflags=-m -S '-trimpath=" + root + "=>repro'"
	}
	out := goCmd(t, "build", flags, "-o", os.DevNull, "./...", "./testdata/noalloc/...", "./testdata/rootonly")
	escapes, code := parseEscapes(out), []instr(nil)
	if amd64 {
		// Item 1(d) of ROADMAP.md: quote the kernels' alignment in the
		// binary bench/run.sh runs beside any sort-workload number.
		bin := filepath.Join(t.TempDir(), "bench")
		code = parseAsm(out+goCmd(t, "-C", "bench", "build", "-buildvcs=false", flags, "-o", bin, "."), root)
		nm := regexp.MustCompile(`(?m)^\s*([0-9a-f]+) T (\S+qsort\.(HoarePartition|scanLeft|scanRight)\[go\.shape\.int32\])$`)
		for _, m := range nm.FindAllStringSubmatch(goCmd(t, "tool", "nm", bin), -1) {
			addr, _ := strconv.ParseUint(m[1], 16, 64)
			t.Logf("bench binary: %s at %#x, mod 64 = %d", m[2], addr, addr%64)
		}
	} else {
		t.Logf("//repro:asm rules skipped on GOARCH=%s", runtime.GOARCH)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)

	t.Run("module", func(t *testing.T) {
		var dirs []string
		for _, p := range strings.Fields(goCmd(t, "list", "./...")) {
			dirs = append(dirs, "."+strings.TrimPrefix(p, "repro"))
		}
		findings, inventory := checkNoalloc(t, fset, imp, escapes, code, dirs)
		for _, f := range findings {
			t.Error(f)
		}
		checkGolden(t, "noalloc.txt", inventory)
	})

	// Each testdata line that must be reported carries a "// want `regexp`"
	// comment; every finding must be wanted and every want found.
	t.Run("noalloc", func(t *testing.T) {
		checkWants(t, fset, imp, escapes, code, "testdata/noalloc", "testdata/noalloc/gen")
	})
	t.Run("directives", func(t *testing.T) {
		checkWants(t, fset, imp, escapes, code, "testdata/noalloc/directives")
	})
	t.Run("asm", func(t *testing.T) {
		if !amd64 {
			t.Skip("GOARCH is not amd64")
		}
		checkWants(t, fset, imp, escapes, code, "testdata/noalloc/asm")
	})
}

// goCmd runs the go command and returns its output.
func goCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v: %v\n%s", cmd, err, out)
	}
	return string(out)
}

// checkWants runs checkNoalloc on the testdata packages in dirs and
// requires its findings to be exactly the lines marked "// want".
func checkWants(t *testing.T, fset *token.FileSet, imp types.Importer, escapes []finding, code []instr, dirs ...string) {
	t.Helper()
	findings, _ := checkNoalloc(t, fset, imp, escapes, code, dirs)
	wantRe := regexp.MustCompile("// want `([^`]+)`")
	wants := make(map[string]*regexp.Regexp) // by "file:line"
	for _, dir := range dirs {
		names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, name := range names {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if m := wantRe.FindStringSubmatch(line); m != nil {
					wants[fmt.Sprintf("repro/%s:%d", filepath.ToSlash(name), i+1)] = regexp.MustCompile(m[1])
				}
			}
		}
	}
	found := make(map[string]bool)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.file, f.line)
		if re := wants[key]; re == nil || !re.MatchString(f.msg) {
			t.Errorf("unexpected finding %s", f)
		}
		found[key] = true
	}
	for key, re := range wants {
		if !found[key] {
			t.Errorf("%s: want %q, found nothing", key, re)
		}
	}
}

// A finding is one allocation, codegen defect or malformed directive, at the
// position the compiler prints: the package's import path and the file's name.
type finding struct {
	file      string
	line, col int
	msg       string
}

func (f finding) String() string { return fmt.Sprintf("%s:%d:%d: %s", f.file, f.line, f.col, f.msg) }

// escapeRe matches the two escape-analysis messages that mean a heap
// allocation ("leaking param" and "does not escape" do not).
var escapeRe = regexp.MustCompile(`(?m)^(repro/\S+\.go):(\d+):(\d+): (.+ escapes to heap|moved to heap: .+)$`)

// parseEscapes returns the heap allocations in the build's output, one per
// position: the compiler prints a generic body's once per instantiation.
func parseEscapes(out string) []finding {
	seen := make(map[string]bool)
	var es []finding
	for _, m := range escapeRe.FindAllStringSubmatch(out, -1) {
		if pos := strings.Join(m[1:4], ":"); !seen[pos] {
			seen[pos] = true
			line, _ := strconv.Atoi(m[2])
			col, _ := strconv.Atoi(m[3])
			es = append(es, finding{m[1], line, col, m[4]})
		}
	}
	return es
}

// checkNoalloc checks the //repro: directives of the packages in dirs
// against escapes, the allocations the compiler reported, and code, its
// instructions (nil: not read), and returns the findings and the inventory
// of directives, one "<package> <function> <kind>" line each.
func checkNoalloc(t *testing.T, fset *token.FileSet, imp types.Importer, escapes []finding, code []instr, dirs []string) (findings []finding, inventory []string) {
	t.Helper()
	type fn struct {
		name        string
		first, last int
	}
	fns := make(map[string][]fn) // by file
	allowed := make(map[string]bool)
	var directives []*finding                  // //repro:asm, msg its rule
	constrained := make(map[string][]*finding) // by "file:line"
	at := func(pos token.Pos) (string, int, int) {
		p := fset.Position(pos)
		return path.Join("repro", filepath.ToSlash(p.Filename)), p.Line, p.Column
	}
	report := func(pos token.Pos, msg string) {
		file, line, col := at(pos)
		findings = append(findings, finding{file, line, col, msg})
	}
	alloc := func(fd *ast.FuncDecl, pos token.Pos, what string) {
		if file, line, _ := at(pos); !allowed[fmt.Sprint(file, ":", line)] {
			report(pos, what+" in //repro:noalloc function "+fd.Name.Name)
		}
	}
	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		pkgPath := path.Join("repro", filepath.ToSlash(dir))
		var files []*ast.File
		var annotated []*ast.FuncDecl
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			docOf := make(map[*ast.Comment]*ast.FuncDecl)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil && fd.Body != nil {
					for _, c := range fd.Doc.List {
						docOf[c] = fd
					}
				}
			}
			var fileFns []*ast.FuncDecl
			var allows []*ast.Comment
			for _, g := range f.Comments {
				for _, c := range g.List {
					text, ok := strings.CutPrefix(c.Text, "//repro:")
					if !ok {
						continue
					}
					kind, rule, _ := strings.Cut(text, " ")
					rule, _, _ = strings.Cut(rule, " ")
					switch {
					case kind == "noalloc" && docOf[c] != nil:
						fileFns = append(fileFns, docOf[c])
					case kind == "noalloc":
						report(c.Pos(), "//repro:noalloc is not attached to a function declaration")
					case kind == "allow":
						allows = append(allows, c)
					case kind == "asm" && (rule == "cmp" || rule == "call"):
						// On a line, the directive constrains that line; in a
						// doc comment, every line of the function.
						d, fd := &finding{msg: rule}, docOf[c]
						d.file, d.line, d.col = at(c.Pos())
						first, last := d.line, d.line
						if fd != nil {
							_, first, _ = at(fd.Pos())
							_, last, _ = at(fd.End())
						} else if i := slices.IndexFunc(f.Decls, func(d ast.Decl) bool { return d.Pos() <= c.Pos() && c.Pos() < d.End() }); i >= 0 {
							fd, _ = f.Decls[i].(*ast.FuncDecl)
						}
						if fd == nil {
							report(c.Pos(), "//repro:asm outside a function")
							continue
						}
						for l := first; l <= last; l++ {
							k := fmt.Sprint(d.file, ":", l)
							constrained[k] = append(constrained[k], d)
						}
						directives = append(directives, d)
						inventory = append(inventory, pkgPath+" "+declName(fd)+" asm "+rule)
					case kind == "asm":
						report(c.Pos(), fmt.Sprintf("unknown //repro:asm rule %q (known: call, cmp)", rule))
					default:
						report(c.Pos(), fmt.Sprintf("unknown //repro: directive %q (known: allow, asm, noalloc)", kind))
					}
				}
			}
			for _, c := range allows {
				i := slices.IndexFunc(fileFns, func(fd *ast.FuncDecl) bool { return fd.Pos() <= c.Pos() && c.Pos() < fd.End() })
				if i < 0 {
					report(c.Pos(), "//repro:allow outside a //repro:noalloc function")
					continue
				}
				file, line, _ := at(c.Pos())
				allowed[fmt.Sprint(file, ":", line)] = true
				inventory = append(inventory, pkgPath+" "+declName(fileFns[i])+" allow")
			}
			annotated = append(annotated, fileFns...)
		}
		if len(annotated) == 0 {
			continue
		}
		// The syntactic half needs types: append must be the builtin, and an
		// index assignment counts only if the indexed value is a map.
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue), Uses: make(map[*ast.Ident]types.Object)}
		if _, err := (&types.Config{Importer: imp}).Check(pkgPath, fset, files, info); err != nil {
			t.Fatal(err)
		}
		for _, fd := range annotated {
			inventory = append(inventory, pkgPath+" "+declName(fd)+" noalloc")
			file, first, _ := at(fd.Pos())
			_, last, _ := at(fd.End())
			fns[file] = append(fns[file], fn{fd.Name.Name, first, last})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
						if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
							alloc(fd, x.Pos(), "append may allocate")
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if idx, ok := lhs.(*ast.IndexExpr); ok {
							if _, ok := info.Types[idx.X].Type.Underlying().(*types.Map); ok {
								alloc(fd, lhs.Pos(), "map write may allocate")
							}
						}
					}
				case *ast.GoStmt:
					alloc(fd, x.Pos(), "go statement allocates a goroutine")
				}
				return true
			})
		}
	}
	for _, e := range escapes {
		for _, f := range fns[e.file] {
			if f.first <= e.line && e.line <= f.last && !allowed[fmt.Sprint(e.file, ":", e.line)] {
				e.msg += " in //repro:noalloc function " + f.name
				findings = append(findings, e)
			}
		}
	}
	// Every copy of a constrained line in code is held to the rule, and some
	// copy must exist, so a kernel that moved leaves no directive that checks
	// nothing.
	found := make(map[*finding]bool)
	seen := make(map[finding]bool) // each package's build prints its own copies
	for i, in := range code {
		for _, d := range constrained[fmt.Sprint(in.file, ":", in.line)] {
			found[d] = true
			if f := (finding{in.file, in.line, d.col, asmViolation(d.msg, code[i:])}); f.msg != "" && !seen[f] {
				seen[f] = true
				findings = append(findings, finding{f.file, f.line, f.col, f.msg + " in " + in.fn + " (//repro:asm " + d.msg + ")"})
			}
		}
	}
	for _, d := range directives {
		if code != nil && !found[d] {
			findings = append(findings, finding{d.file, d.line, d.col, "//repro:asm " + d.msg + " constrains no instruction"})
		}
	}
	return findings, inventory
}

// declName names a function as noalloc.txt lists it, e.g. "(*worker).spawn".
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// An instr is one instruction of function fn's -S listing, at the source
// line the compiler gives it (an inlined callee's own).
type instr struct {
	fn, file, op, args string
	line               int
}

// parseAsm returns the instructions in the builds' output, positions under
// root rewritten as -trimpath does (the benchmark's build compiles this
// module without it). A generic function is read in its int32 copies, the
// shape the benchmark sorts; other shapes compare differently.
func parseAsm(out, root string) (code []instr) {
	fn := ""
	for line := range strings.Lines(out) {
		// "<name> STEXT …" heads a function's listing, and an instruction
		// reads "\t0x0024 00036 (repro/internal/qsort/seq.go:95)\tCMPL\tDX, AX".
		f := strings.Split(strings.TrimSpace(line), "\t")
		if name, kind, _ := strings.Cut(f[0], " "); !strings.HasPrefix(line, "\t") {
			fn = ""
			if strings.HasPrefix(kind, "STEXT") && (strings.Contains(name, "go.shape.int32") || !strings.Contains(name, "go.shape.")) {
				fn = name
			}
		} else if pos, ok := strings.CutSuffix(f[0], ")"); ok && fn != "" && len(f) > 1 && !slices.Contains([]string{"TEXT", "FUNCDATA", "PCDATA", "NOP"}, f[1]) {
			_, pos, _ = strings.Cut(pos, "(")
			file, l, _ := strings.Cut(pos, ":")
			n, _ := strconv.Atoi(l)
			code = append(code, instr{fn, strings.Replace(file, root, "repro", 1), f[1], f[len(f)-1], n})
		}
	}
	return code
}

// asmViolation returns how code[0] breaks rule, or "". Either rule forbids
// a CALL of a named function, what a helper the compiler did not inline
// costs (runtime panics and the stack check's morestack are not such calls).
// cmp: every 32-bit comparison, CMPL (the elements'; loop bounds are 64-bit),
// is followed by a SETcc or CMOVcc, register copies between, not a jump.
// call: every indirect CALL, the caller's predicate, is followed by the
// MOVBLZX or SETcc that makes its answer a number.
func asmViolation(rule string, code []instr) string {
	in, next := code[0], ""
	for _, n := range code[1:] {
		next = n.op
		if rule == "call" || !strings.HasPrefix(n.op, "MOV") || strings.ContainsAny(n.args, "($") {
			break // cmp looks past register copies
		}
	}
	switch {
	case in.op == "CALL" && strings.HasSuffix(in.args, "(SB)"):
		if !strings.HasPrefix(in.args, "runtime.panic") && !strings.HasPrefix(in.args, "runtime.morestack") {
			return "CALL " + strings.TrimSuffix(in.args, "(SB)")
		}
	case in.op == "CALL" && rule == "call" && next != "MOVBLZX" && !strings.HasPrefix(next, "SET"):
		return "indirect CALL followed by " + next
	case in.op == "CMPL" && rule == "cmp" && !strings.HasPrefix(next, "SET") && !strings.HasPrefix(next, "CMOV"):
		return "CMPL followed by " + next
	}
	return ""
}
