package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The annotation vocabulary (DESIGN.md §10):
//
//	//sf:wallclock        package- or function-level: this code is on
//	                      the nondeterministic side of the boundary.
//	//sf:hotpath          function-level: allocation-free hot loop.
//	//sflint:ignore A R   suppresses analyzer A's diagnostics on this
//	                      or the next line, for reason R (mandatory).
//
// Any other //sf: keyword is a load error.

// Notes is the parsed //sf: annotation set of one package.
type Notes struct {
	// PkgWallclock marks the whole package nondeterministic-side.
	PkgWallclock bool
	// WallclockFuncs holds //sf:wallclock-annotated declarations.
	WallclockFuncs map[*ast.FuncDecl]bool
	// HotpathFuncs holds //sf:hotpath-annotated declarations.
	HotpathFuncs map[*ast.FuncDecl]bool
	// Ignores holds the package's //sflint:ignore directives.
	Ignores []*Ignore
}

// Ignore is one //sflint:ignore directive.
type Ignore struct {
	Position token.Position
	Analyzer string
	Reason   string
	// Used is set by ApplyIgnores when the directive suppresses at
	// least one diagnostic; a directive that stays unused is stale and
	// fails the run.
	Used bool
}

// annotation prefixes. A directive must occupy its own // comment
// line; anything after the keyword (and its arguments) is free text.
const (
	annPrefix    = "//sf:"
	annWallclock = annPrefix + "wallclock"
	annHotpath   = annPrefix + "hotpath"
	annIgnore    = "//sflint:ignore"
)

// parseNotes extracts the package's annotations. Malformed directives
// (an //sf: keyword sflint does not define, an ignore without analyzer
// and reason) are errors — a directive that silently parses as a plain
// comment would disable the very check it names.
func parseNotes(pkg *Package) (*Notes, error) {
	n := &Notes{
		WallclockFuncs: map[*ast.FuncDecl]bool{},
		HotpathFuncs:   map[*ast.FuncDecl]bool{},
	}
	for _, f := range pkg.Files {
		// Package-level //sf:wallclock: any comment group that ends
		// before the package clause (the doc comment or a standalone
		// group above it).
		for _, cg := range f.Comments {
			if cg.End() >= f.Package {
				break
			}
			if hasDirective(cg, annWallclock) {
				n.PkgWallclock = true
			}
		}
		// Every comment in the file, doc and trailing alike: a misspelled
		// keyword is rejected wherever it sits, and ignores are
		// free-standing.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				switch {
				case strings.HasPrefix(text, annPrefix):
					keyword, _, _ := strings.Cut(text, " ")
					if keyword != annWallclock && keyword != annHotpath {
						return nil, annErr(pkg, c.Pos(), fmt.Sprintf("unknown directive %s: sflint defines only %s and %s",
							keyword, annWallclock, annHotpath))
					}
				case strings.HasPrefix(text, annIgnore):
					rest := strings.TrimPrefix(text, annIgnore)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						return nil, annErr(pkg, c.Pos(), "//sflint:ignore wants an analyzer name and a reason")
					}
					if _, ok := AnalyzerByName(fields[0]); !ok {
						return nil, annErr(pkg, c.Pos(), fmt.Sprintf("//sflint:ignore names unknown analyzer %q", fields[0]))
					}
					n.Ignores = append(n.Ignores, &Ignore{
						Position: pkg.Fset.Position(c.Pos()),
						Analyzer: fields[0],
						Reason:   strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])),
					})
				}
			}
		}
		// Function-level directives.
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok {
				if hasDirective(d.Doc, annWallclock) {
					n.WallclockFuncs[d] = true
				}
				if hasDirective(d.Doc, annHotpath) {
					n.HotpathFuncs[d] = true
				}
			}
		}
	}
	return n, nil
}

// hasDirective reports whether the comment group contains the bare
// directive as its own line (with optional trailing free text after a
// separating space; the directives take no arguments).
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

func annErr(pkg *Package, pos token.Pos, msg string) error {
	p := pkg.Fset.Position(pos)
	return fmt.Errorf("%s:%d:%d: %s", p.Filename, p.Line, p.Column, msg)
}

// wallclockExempt reports whether the function declaration enclosing
// pos is annotated //sf:wallclock (or the whole package is).
func (n *Notes) wallclockExempt(files []*ast.File, pos token.Pos) bool {
	if n.PkgWallclock {
		return true
	}
	fd := enclosingFunc(files, pos)
	return fd != nil && n.WallclockFuncs[fd]
}

// enclosingFunc finds the function declaration whose body spans pos.
func enclosingFunc(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}
