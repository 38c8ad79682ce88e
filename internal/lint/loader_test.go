package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Loader parses and type-checks packages rooted at a module
// directory, resolving module-local imports from source and everything
// else (the standard library) through go/importer's source importer.
// The module keeps a dependency-free go.mod, so without
// golang.org/x/tools the in-process tests (TestModuleClean,
// TestNoTestOnlyExports and the fixture harness) load packages with
// this miniature go/packages; go vet loads them for the hgwlint binary.
type Loader struct {
	root    string // module root directory
	modPath string // module import path; "" = fixture mode (paths relative to root)

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path
	typesBy map[*types.Package]bool
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at dir. modPath is
// the module's import path from go.mod ("hgw"); the empty string puts
// the loader in fixture mode, where an import path is a directory
// relative to root (the analysistest layout).
func NewLoader(dir, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		root:    dir,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		typesBy: make(map[*types.Package]bool),
		loading: make(map[string]bool),
	}
}

// ModulePath reads the module path from the go.mod in dir.
func ModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module directive", dir)
}

// LoadAll walks the module and loads every package (skipping testdata,
// hidden and underscore-prefixed directories), in deterministic order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			rel, err := filepath.Rel(l.root, path)
			if err != nil {
				return err
			}
			paths = append(paths, l.importPathFor(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return l.LoadPaths(paths)
}

// LoadPaths loads the given import paths (module-local).
func (l *Loader) LoadPaths(paths []string) ([]*Package, error) {
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func (l *Loader) importPathFor(rel string) string {
	rel = filepath.ToSlash(rel)
	if l.modPath == "" {
		return rel
	}
	if rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + rel
}

// dirFor maps a module-local import path to its directory, or "" when
// the path is not module-local.
func (l *Loader) dirFor(path string) string {
	if l.modPath != "" {
		if path == l.modPath {
			return l.root
		}
		if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
			return filepath.Join(l.root, filepath.FromSlash(rest))
		}
		return ""
	}
	// Fixture mode: a path is local iff its directory exists under the
	// fixture root (letting fixtures import the standard library too).
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	if hasGoFiles(dir) {
		return dir
	}
	return ""
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// load parses and type-checks one module-local package (memoized).
// Test files are not loaded: the module-wide tests check the shipped
// code paths, where the determinism/ownership invariants live.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("package %q is not under the module root %s", path, l.root)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			if l.dirFor(ipath) != "" {
				dep, err := l.load(ipath)
				if err != nil {
					return nil, err
				}
				return dep.Types, nil
			}
			return l.std.Import(ipath)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	pkg := &Package{
		PkgPath:   path,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
		LocalFunc: l.isLocal,
	}
	l.pkgs[path] = pkg
	l.typesBy[tpkg] = true
	return pkg, nil
}

// isLocal reports whether tp was loaded from the module under analysis.
func (l *Loader) isLocal(tp *types.Package) bool {
	return l.typesBy[tp]
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
