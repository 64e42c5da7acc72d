package lint

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The manifest pins the module's directive inventory: one line per
// (package, declaration, kind) with its occurrence count, sorted. The gate
// compares the live inventory against the committed manifest, so deleting
// (or silently gaining) any annotation fails the build even when the
// directive's removal would merely stop a check from running — the
// checkable surface itself is pinned. Identities are symbol-based, not
// line-based, so ordinary edits around an annotation do not churn it.

// ManifestString renders the directive inventory.
func ManifestString(recs []Record) string {
	counts := make(map[Record]int)
	for _, r := range recs {
		counts[r]++
	}
	keys := make([]Record, 0, len(counts))
	for r := range counts {
		keys = append(keys, r)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.Decl != b.Decl {
			return a.Decl < b.Decl
		}
		return a.Kind < b.Kind
	})
	var sb strings.Builder
	sb.WriteString("# reprolint directive manifest — regenerate with: go run ./cmd/reprolint -write-manifest ./...\n")
	sb.WriteString("# <package> <declaration> <directive> <count>\n")
	for _, r := range keys {
		fmt.Fprintf(&sb, "%s %s %s %d\n", r.PkgPath, r.Decl, r.Kind, counts[r])
	}
	return sb.String()
}

// CheckManifestScoped compares the live inventory against the manifest file
// and returns one human-readable mismatch per differing entry, restricted to
// the given package paths: manifest entries for packages outside the scope
// are ignored, so a package-scoped run (reprolint ./internal/core) does not
// report the rest of the module's pinned directives as deleted. A nil scope
// means the whole manifest.
func CheckManifestScoped(path string, recs []Record, scope []string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	want := make(map[Record]int)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s:%d: malformed manifest line %q", path, ln+1, line)
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad count %q", path, ln+1, fields[3])
		}
		want[Record{PkgPath: fields[0], Decl: fields[1], Kind: fields[2]}] += n
	}
	if scope != nil {
		in := make(map[string]bool, len(scope))
		for _, p := range scope {
			in[p] = true
		}
		for r := range want {
			if !in[r.PkgPath] {
				delete(want, r)
			}
		}
	}
	got := make(map[Record]int)
	for _, r := range recs {
		got[r]++
	}
	var out []string
	for r, n := range want {
		switch g := got[r]; {
		case g == 0:
			out = append(out, fmt.Sprintf("missing //repro:%s on %s.%s (manifest expects %d; an invariant annotation was deleted)", r.Kind, r.PkgPath, r.Decl, n))
		case g != n:
			out = append(out, fmt.Sprintf("//repro:%s on %s.%s: manifest expects %d, found %d", r.Kind, r.PkgPath, r.Decl, n, g))
		}
	}
	for r := range got {
		if want[r] == 0 {
			out = append(out, fmt.Sprintf("unpinned //repro:%s on %s.%s (run: go run ./cmd/reprolint -write-manifest ./...)", r.Kind, r.PkgPath, r.Decl))
		}
	}
	sort.Strings(out)
	return out, nil
}
