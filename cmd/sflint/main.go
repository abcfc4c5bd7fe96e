// Command sflint runs the repository's static invariant suite
// (internal/lint, DESIGN.md §10): the determinism, hotpath, and
// codecreg analyzers that prove at compile time what the golden
// runtime tests can only spot-check per schedule — no wall-clock or
// global randomness on the deterministic side of the boundary,
// allocation-free //sf:hotpath bodies, and complete codec/parameter
// registration.
//
// Usage:
//
//	sflint [-json] [-list] [packages]
//
// With no arguments every package of the enclosing module is
// analyzed ("./..."). Package arguments are directories relative to
// the module root (or "./..." explicitly). Diagnostics print one per
// line as file:line:col: analyzer: message; -json emits the same
// findings as a JSON array on stdout for tooling. The exit status is
// 0 for a clean run, 1 when there are findings (including stale
// //sflint:ignore directives), 2 on usage or load errors.
//
// Suppressions are //sflint:ignore <analyzer> <reason> comments on
// the flagged line or the line above; the reason is mandatory and a
// directive that suppresses nothing fails the run, so the ignore list
// can only shrink.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"scalefree/internal/lint"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sflint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// options is the parsed command line, separated from execution so the
// CLI test covers flag validation and output modes without exec'ing
// the binary (the cmd/genstats idiom).
type options struct {
	jsonOut  bool
	list     bool
	dir      string
	patterns []string
}

func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("sflint", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.BoolVar(&o.jsonOut, "json", false, "emit diagnostics as a JSON array on stdout")
	fs.BoolVar(&o.list, "list", false, "list the analyzers and exit")
	fs.StringVar(&o.dir, "C", ".", "analyze the module containing this directory")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.patterns = fs.Args()
	if len(o.patterns) == 0 {
		o.patterns = []string{"./..."}
	}
	return o, nil
}

// jsonDiagnostic is the machine-readable diagnostic schema. It is
// part of the tooling contract: field renames are breaking changes.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	o, err := parseOptions(args)
	if err != nil {
		return 2, err
	}
	if o.list {
		for _, a := range lint.Analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}
	root, err := moduleRoot(o.dir)
	if err != nil {
		return 2, err
	}
	modPath, err := lint.ModulePathOf(root)
	if err != nil {
		return 2, err
	}
	loader := lint.NewLoader(root, modPath)
	pkgs, err := loader.Load()
	if err != nil {
		return 2, err
	}
	selected, err := selectPackages(pkgs, root, modPath, o.patterns)
	if err != nil {
		return 2, err
	}
	res, err := lint.Run(selected, lint.Analyzers)
	if err != nil {
		return 2, err
	}
	all := res.All()
	if o.jsonOut {
		out := make([]jsonDiagnostic, 0, len(all))
		for _, d := range all {
			out = append(out, jsonDiagnostic{
				File:     relPath(root, d.Position.Filename),
				Line:     d.Position.Line,
				Col:      d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return 2, err
		}
	} else {
		for _, d := range all {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
				relPath(root, d.Position.Filename), d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(stderr, "sflint: %d finding(s) across %d package(s)\n", len(all), len(selected))
		return 1, nil
	}
	fmt.Fprintf(stderr, "sflint: clean (%d packages, %d analyzers)\n", len(selected), len(lint.Analyzers))
	return 0, nil
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", abs)
		}
		d = parent
	}
}

// selectPackages filters the loaded packages by the CLI patterns:
// "./..." (everything), "dir/..." (subtree), or "dir" (one package),
// all relative to the module root.
func selectPackages(pkgs []*lint.Package, root, modPath string, patterns []string) ([]*lint.Package, error) {
	var out []*lint.Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		matched := false
		for _, pkg := range pkgs {
			rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, modPath), "/")
			ok := false
			switch {
			case pat == "..." || pat == "":
				ok = true
			case strings.HasSuffix(pat, "/..."):
				prefix := strings.TrimSuffix(pat, "/...")
				ok = rel == prefix || strings.HasPrefix(rel, prefix+"/")
			default:
				ok = rel == pat
			}
			if ok && !seen[pkg.Path] {
				seen[pkg.Path] = true
				out = append(out, pkg)
			}
			matched = matched || ok
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no packages under %s", pat, root)
		}
	}
	return out, nil
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
