// Command reprolint runs the project's static-analyzer suite (see
// internal/lint) over the module and exits non-zero on any finding. It is
// part of the default gate: make lint / scripts/check.sh run it with the
// committed directive manifest, so both invariant violations and deleted
// invariant annotations fail the build. The noalloc analyzer reads the
// compiler's escape analysis, so the go command must be on PATH.
//
// Usage:
//
//	reprolint [flags] [./... | import/path ...]
//
//	-run name,name     run only the named analyzers (default: all)
//	-manifest path     directive manifest to verify (default
//	                   internal/lint/reprolint.manifest; "" or "none" skips)
//	-write-manifest    regenerate the manifest from the current tree and exit
//	-list              print the analyzers and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		runFlag       = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		manifestFlag  = flag.String("manifest", "internal/lint/reprolint.manifest", "directive manifest to verify, relative to the module root (\"\" or \"none\" to skip)")
		writeManifest = flag.Bool("write-manifest", false, "regenerate the directive manifest and exit")
		listFlag      = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *runFlag != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*runFlag, ",") {
			a := lint.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				fatalf("unknown analyzer %q (use -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fatalf("%v", err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatalf("%v", err)
	}

	paths, err := targetPaths(loader, flag.Args())
	if err != nil {
		fatalf("%v", err)
	}

	var pkgs []*lint.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatalf("%v", err)
		}
		pkgs = append(pkgs, pkg)
	}

	ix := lint.NewIndex()
	for _, pkg := range pkgs {
		ix.AddPackage(pkg)
	}

	if *writeManifest {
		path := manifestPath(root, *manifestFlag)
		if path == "" {
			fatalf("-write-manifest needs a -manifest path")
		}
		if err := os.WriteFile(path, []byte(lint.ManifestString(ix.Records())), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s (%d directives)\n", path, len(ix.Records()))
		return
	}

	diags := ix.Errors()
	diags = append(diags, lint.Run(analyzers, pkgs, ix)...)
	for _, d := range diags {
		fmt.Println(d)
	}

	failed := len(diags) > 0
	if path := manifestPath(root, *manifestFlag); path != "" {
		mismatches, err := lint.CheckManifestScoped(path, ix.Records(), paths)
		if err != nil {
			fatalf("%v", err)
		}
		for _, m := range mismatches {
			fmt.Printf("%s: manifest: %s\n", path, m)
		}
		failed = failed || len(mismatches) > 0
	}
	if failed {
		os.Exit(1)
	}
}

func manifestPath(root, flagVal string) string {
	if flagVal == "" || flagVal == "none" {
		return ""
	}
	if filepath.IsAbs(flagVal) {
		return flagVal
	}
	return filepath.Join(root, filepath.FromSlash(flagVal))
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// targetPaths resolves command-line patterns to module import paths.
// No arguments or "./..." means the whole module.
func targetPaths(loader *lint.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		return loader.ModulePackages()
	}
	var paths []string
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			return loader.ModulePackages()
		case strings.HasPrefix(arg, loader.ModulePath):
			paths = append(paths, arg)
		case strings.HasPrefix(arg, "./"):
			rel := filepath.ToSlash(strings.TrimPrefix(arg, "./"))
			if rel == "" || rel == "." {
				paths = append(paths, loader.ModulePath)
			} else {
				paths = append(paths, loader.ModulePath+"/"+rel)
			}
		default:
			return nil, fmt.Errorf("cannot resolve package pattern %q (use ./... or module import paths)", arg)
		}
	}
	return paths, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "reprolint: "+format+"\n", args...)
	os.Exit(2)
}
