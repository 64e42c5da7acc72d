package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches expectation comments in testdata sources:
//
//	// want "regexp"      — a diagnostic on this line
//	// want+N "regexp"    — a diagnostic N lines below (for lines that
//	//                      cannot hold a second comment, e.g. directive
//	//                      comments themselves)
//
// Backquotes may be used instead of double quotes.
var wantRe = regexp.MustCompile("//\\s*want(\\+(\\d+))?\\s+(?:\"([^\"]+)\"|`([^`]+)`)")

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("opening %s: %v", path, err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				offset := 0
				if m[2] != "" {
					offset, _ = strconv.Atoi(m[2])
				}
				pat := m[3]
				if pat == "" {
					pat = m[4]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, line, pat, err)
				}
				wants = append(wants, &want{file: e.Name(), line: line + offset, re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanning %s: %v", path, err)
		}
		f.Close()
	}
	return wants
}

// TestAnalyzersOnTestdata runs the directive loader and noalloc over each
// testdata package and requires an exact correspondence between emitted diagnostics and the
// `// want` expectations in the sources: every want must be hit, and every
// diagnostic must be wanted.
func TestAnalyzersOnTestdata(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for _, name := range []string{"noalloc", "directives"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			pkg, err := loader.Load(loader.ModulePath + "/internal/lint/" + filepath.ToSlash(dir))
			if err != nil {
				t.Fatalf("Load(%s): %v", dir, err)
			}
			ix := NewIndex()
			ix.AddPackage(pkg)
			var diags []Diagnostic
			diags = append(diags, ix.Errors()...)
			diags = append(diags, Check([]*Package{pkg}, ix)...)

			wants := collectWants(t, dir)
			for _, d := range diags {
				base := filepath.Base(d.Pos.Filename)
				found := false
				for _, w := range wants {
					if w.file == base && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.matched = true
						found = true
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: want %q: no matching diagnostic", filepath.Join(dir, w.file), w.line, w.re)
				}
			}
		})
	}
}

// TestManifestRoundTrip checks that a written manifest verifies cleanly and
// that both deleted and unpinned directives are reported as mismatches.
func TestManifestRoundTrip(t *testing.T) {
	recs := []Record{
		{PkgPath: "repro/internal/core", Decl: "(*worker).spawn", Kind: KindNoAlloc},
		{PkgPath: "repro/internal/core", Decl: "(*worker).getCtx", Kind: KindAllow},
		{PkgPath: "repro/internal/par", Decl: "(*Claimer).Init", Kind: KindAllow},
		{PkgPath: "repro/internal/par", Decl: "(*Claimer).Init", Kind: KindAllow},
	}
	path := filepath.Join(t.TempDir(), "reprolint.manifest")
	if err := os.WriteFile(path, []byte(ManifestString(recs)), 0o644); err != nil {
		t.Fatal(err)
	}

	mismatches, err := CheckManifestScoped(path, recs, nil)
	if err != nil {
		t.Fatalf("CheckManifestScoped: %v", err)
	}
	if len(mismatches) != 0 {
		t.Fatalf("clean round trip reported mismatches: %v", mismatches)
	}

	// Deleting an annotation must be detected.
	mismatches, err = CheckManifestScoped(path, recs[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) == 0 || !strings.Contains(mismatches[0], "missing //repro:noalloc") {
		t.Errorf("deleted annotation not detected: %v", mismatches)
	}

	// A count change (one of two identical directives removed) must be detected.
	mismatches, err = CheckManifestScoped(path, recs[:3], nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range mismatches {
		if strings.Contains(m, "expects 2, found 1") {
			found = true
		}
	}
	if !found {
		t.Errorf("count mismatch not detected: %v", mismatches)
	}

	// A package-scoped check ignores manifest entries for packages outside
	// the scope (a reprolint run on one package must not report the rest of
	// the module's pins as deleted).
	mismatches, err = CheckManifestScoped(path, recs[:2], []string{"repro/internal/core"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) != 0 {
		t.Errorf("scoped check leaked out-of-scope entries: %v", mismatches)
	}
	mismatches, err = CheckManifestScoped(path, nil, []string{"repro/internal/core"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) != 2 {
		t.Errorf("scoped check missed in-scope deletions: %v", mismatches)
	}

	// A new, unpinned annotation must be flagged until the manifest is regenerated.
	extra := append([]Record{}, recs...)
	extra = append(extra, Record{PkgPath: "repro/internal/stats", Decl: "Observe", Kind: KindNoAlloc})
	mismatches, err = CheckManifestScoped(path, extra, nil)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, m := range mismatches {
		if strings.Contains(m, "unpinned //repro:noalloc") {
			found = true
		}
	}
	if !found {
		t.Errorf("unpinned annotation not detected: %v", mismatches)
	}
}
