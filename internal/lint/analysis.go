package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static check, shaped like
// golang.org/x/tools/go/analysis.Analyzer so the suite could migrate
// onto the upstream driver wholesale if the dependency ever lands.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and
	// //sflint:ignore directives.
	Name string
	// Doc is the one-paragraph description `sflint -list` prints.
	Doc string
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass) error
}

// Analyzers is the sflint suite in reporting order.
var Analyzers = []*Analyzer{
	Determinism,
	HotPath,
	CodecReg,
}

// AnalyzerByName looks an analyzer up by its diagnostic name.
func AnalyzerByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Notes holds the package's parsed //sf: annotations.
	Notes *Notes

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, located in the source.
type Diagnostic struct {
	Position token.Position `json:"-"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the conventional
// file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// sortDiagnostics orders findings by file, line, column, analyzer —
// the stable order every output mode uses.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
