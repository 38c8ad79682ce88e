// Command hgwlint runs the repo's invariant analyzers (internal/lint)
// as a go vet tool: detlint (determinism, DESIGN.md §8), poollint
// (buffer ownership, DESIGN.md §9), exhaustlint (enum switch
// exhaustiveness), droplint (drop-reason registry discipline) and
// obslint (write-only telemetry).
//
//	go build -o /tmp/hgwlint ./cmd/hgwlint
//	go vet -vettool=/tmp/hgwlint ./...
//
// It speaks the part of the cmd/go vettool protocol vet needs (-V=full,
// -flags and one *.cfg build unit per invocation), so cmd/go loads the
// packages, test files included. internal/lint's TestModuleClean runs
// the same suite over the whole module in process.
//
// Exit status: 0 clean, 2 findings or an operational error (the
// vettool convention).
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"hgw/internal/lint"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			fmt.Println("hgwlint version 1 (stdlib go/analysis)")
			return
		case a == "-flags":
			fmt.Println("[]")
			return
		}
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		os.Exit(vettool(args[n-1]))
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which hgwlint) ./...")
	os.Exit(2)
}

// vetConfig is the JSON unit description cmd/go hands a vettool.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	ModulePath                string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vettool analyzes one build unit the way x/tools' unitchecker does:
// parse the unit's files, type-check against the export data cmd/go
// already produced, run the suite, print findings to stderr.
func vettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hgwlint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// cmd/go caches vet results keyed on the output file; it must exist
	// even though hgwlint exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("hgwlint"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		files = append(files, f)
	}

	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: vetImporter{gc: gc, importMap: cfg.ImportMap},
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	mod := cfg.ModulePath
	if mod == "" {
		mod = "hgw"
	}
	pkg := &lint.Package{
		PkgPath:   cfg.ImportPath,
		Dir:       cfg.Dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
		LocalFunc: func(tp *types.Package) bool {
			return tp.Path() == mod || strings.HasPrefix(tp.Path(), mod+"/")
		},
	}
	diags, err := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", d.Position, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

type vetImporter struct {
	gc        types.Importer
	importMap map[string]string
}

func (v vetImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := v.importMap[path]; ok {
		path = mapped
	}
	return v.gc.Import(path)
}
