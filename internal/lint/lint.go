// Package lint is hgwlint: a suite of static analyzers that machine-
// check the repo's load-bearing invariants — determinism of the
// simulation/render paths (DESIGN.md §8), the pooled-buffer ownership
// rules (DESIGN.md §9), exhaustiveness of switches over the RFC
// 4787/5382 behavior axes and the service job lifecycle, and the
// single-registry discipline for NAT drop reasons.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic, an analysistest-style fixture
// harness) but is built only on the standard library's go/ast, go/types
// and go/importer, so the module keeps its zero-dependency go.mod. If
// x/tools ever lands in the build environment the analyzers port
// mechanically: each Run function already receives the same inputs an
// *analysis.Pass would carry.
//
// Suppressing a finding: a justified exception carries an annotation
// comment on the flagged line or the line above it,
//
//	//hgwlint:allow <analyzer> <reason>
//
// and a whole file opts out of one analyzer with
//
//	//hgwlint:allowfile <analyzer> <reason>
//
// The reason is mandatory; an annotation without one is itself
// reported. See DESIGN.md §11 for the invariant-to-analyzer map.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Package is one loaded, parsed and type-checked package: the inputs
// an analyzer Pass needs.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	LocalFunc func(*types.Package) bool
}

// An Analyzer describes one static check. The shape mirrors
// x/tools/go/analysis.Analyzer so the suite can be ported mechanically.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //hgwlint:allow annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	// Local reports whether a types.Package was loaded from the module
	// under analysis (as opposed to the standard library). Analyzers
	// use it to restrict enum discovery and registry rules to our own
	// types.
	Local func(*types.Package) bool

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. Diagnostics on lines annotated
// with a matching //hgwlint:allow are filtered out by the driver.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
}

// Analyzers returns the full hgwlint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetLint, PoolLint, ExhaustLint, DropLint, ObsLint}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics (allow-annotated findings removed, malformed annotations
// added) sorted by position. It is the single entry point shared by
// cmd/hgwlint, the vettool mode and the tests.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows, bad := collectAllows(pkg)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				PkgPath:   pkg.PkgPath,
				TypesInfo: pkg.TypesInfo,
				Local:     pkg.LocalFunc,
				diags:     new([]Diagnostic),
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range *pass.diags {
				if !allows.allowed(a.Name, d.Position) {
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// allowSet indexes the //hgwlint:allow annotations of one package.
type allowSet struct {
	// line maps filename -> analyzer -> set of line numbers whose
	// findings are suppressed (the annotation's own line and the one
	// below it).
	line map[string]map[string]map[int]bool
	// file maps filename -> analyzer suppressed for the whole file.
	file map[string]map[string]bool
}

func (s *allowSet) allowed(analyzer string, pos token.Position) bool {
	if s.file[pos.Filename][analyzer] {
		return true
	}
	return s.line[pos.Filename][analyzer][pos.Line]
}

const (
	allowPrefix     = "//hgwlint:allow "
	allowFilePrefix = "//hgwlint:allowfile "
)

// collectAllows parses the annotation comments of every file in pkg.
// Malformed annotations (unknown analyzer, missing reason) are returned
// as diagnostics so a typo cannot silently disable a check.
func collectAllows(pkg *Package) (*allowSet, []Diagnostic) {
	s := &allowSet{
		line: make(map[string]map[string]map[int]bool),
		file: make(map[string]map[string]bool),
	}
	var bad []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Position: pos,
			Analyzer: "hgwlint",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				var rest string
				var wholeFile bool
				switch {
				case strings.HasPrefix(text, allowPrefix):
					rest = strings.TrimPrefix(text, allowPrefix)
				case strings.HasPrefix(text, allowFilePrefix):
					rest, wholeFile = strings.TrimPrefix(text, allowFilePrefix), true
				case strings.HasPrefix(text, "//hgwlint:"):
					report(pkg.Fset.Position(c.Pos()),
						"malformed hgwlint annotation %q: want //hgwlint:allow <analyzer> <reason> or //hgwlint:allowfile <analyzer> <reason>", text)
					continue
				default:
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				name, reason, _ := strings.Cut(rest, " ")
				if ByName(name) == nil {
					report(pos, "hgwlint annotation names unknown analyzer %q", name)
					continue
				}
				if strings.TrimSpace(reason) == "" {
					report(pos, "hgwlint annotation for %s is missing its justification", name)
					continue
				}
				if wholeFile {
					m := s.file[pos.Filename]
					if m == nil {
						m = make(map[string]bool)
						s.file[pos.Filename] = m
					}
					m[name] = true
					continue
				}
				byAnalyzer := s.line[pos.Filename]
				if byAnalyzer == nil {
					byAnalyzer = make(map[string]map[int]bool)
					s.line[pos.Filename] = byAnalyzer
				}
				lines := byAnalyzer[name]
				if lines == nil {
					lines = make(map[int]bool)
					byAnalyzer[name] = lines
				}
				// The annotation covers its own line (trailing comment)
				// and the next line (comment above the flagged code).
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return s, bad
}
