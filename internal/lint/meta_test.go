package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// moduleLoad is the one load of the whole module (non-test files) that
// the module-wide meta-tests share.
var moduleLoad = sync.OnceValues(func() ([]*Package, error) {
	root, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	return NewLoader(root, modPath).LoadAll()
})

func loadModule(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := moduleLoad()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	return pkgs
}

// TestModuleClean is the acceptance meta-test: the full hgwlint suite
// over the entire module's non-test files must report nothing. Every
// justified exception in the tree carries an //hgwlint:allow
// annotation, so a new finding here means either a real regression or
// a missing justification. CI's `go vet -vettool=hgwlint ./...` step
// runs the same suite over the test files too.
func TestModuleClean(t *testing.T) {
	diags, err := Run(loadModule(t), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// interfaceMethods names the exported methods that are reached through
// an interface (fmt.Stringer, error, errors.Unwrap, sim.Handler,
// json.Marshaler, io.Writer, types.Importer), so no static call names
// them.
var interfaceMethods = map[string]bool{
	"String":      true,
	"Error":       true,
	"Unwrap":      true,
	"Fire":        true,
	"MarshalJSON": true,
	"Write":       true,
	"Import":      true,
}

// TestNoTestOnlyExports keeps the product packages' API to what the
// product reads: every exported function or method declared in
// internal/ must be used by the module's non-test code, or be selected
// by the benchmark harness under _perfbench. Tests observe a run
// through that surface (registry counters, endpoints they own, and
// unexported fields in white-box tests), so a helper only a test needs
// lives in a _test.go file.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs := loadModule(t)
	used := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.TypesInfo.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	bench, err := benchSelections(filepath.Join("..", "..", "_perfbench"))
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.PkgPath, "/internal/") {
			continue
		}
		for ident, obj := range pkg.TypesInfo.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !ident.IsExported() || used[fn] {
				continue
			}
			recv := fn.Signature().Recv()
			if recv != nil && interfaceMethods[fn.Name()] {
				continue
			}
			if recv == nil && bench[pkg.PkgPath+"."+fn.Name()] ||
				recv != nil && bench[pkg.PkgPath+".)"+fn.Name()] {
				continue
			}
			pos := pkg.Fset.Position(ident.Pos())
			unused = append(unused, pos.String()+": "+types.ObjectString(fn, types.RelativeTo(pkg.Types)))
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests", u)
	}
}

// knobExempt names the fields TestNoUnsetKnobs lets stay settable
// although the product reads them without setting them, each with the
// reason.
var knobExempt = map[string]string{
	"hgw/internal/probe.Options.Resolution": "the search-resolution ablation (DESIGN.md §6) varies it through hgw.WithOptions",
}

// TestNoUnsetKnobs keeps configuration to the values the product uses:
// every exported field of an exported struct declared in internal/
// that the module's non-test code reads must also be written there. A
// write is a keyed or unkeyed composite literal, an assignment, ++ or
// -- or a taken address; a constant assigned under an if that tests
// the same field is the field's own default, not a write. A field only
// its default ever sets is a constant under another name. Types with
// JSON-tagged fields are skipped: encoding/json fills them.
func TestNoUnsetKnobs(t *testing.T) {
	pkgs := loadModule(t)
	read := make(map[*types.Var]bool)
	written := make(map[*types.Var]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fieldUses(pkg.TypesInfo, f, read, written)
		}
	}
	var unset []string
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.PkgPath, "/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || jsonTagged(st) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				if !fv.Exported() || fv.Embedded() || !read[fv] || written[fv] {
					continue
				}
				id := pkg.PkgPath + "." + name + "." + fv.Name()
				if knobExempt[id] != "" {
					continue
				}
				unset = append(unset, pkg.Fset.Position(fv.Pos()).String()+": "+id)
			}
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is read but only its default sets it; make it a constant", u)
	}
}

// jsonTagged reports whether any field of st carries a json tag.
func jsonTagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// fieldUses records, for every struct field that file f selects or
// keys, whether f reads or writes it (see TestNoUnsetKnobs for what
// counts as a write).
func fieldUses(info *types.Info, f *ast.File, read, written map[*types.Var]bool) {
	field := func(e ast.Expr) *types.Var {
		se, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if sel := info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
			return sel.Obj().(*types.Var).Origin()
		}
		return nil
	}
	// lhsField is the field an assignment to e writes: x.F, or an
	// element of it (x.F[i]).
	lhsField := func(e ast.Expr) *types.Var {
		for {
			ix, ok := ast.Unparen(e).(*ast.IndexExpr)
			if !ok {
				return field(e)
			}
			e = ix.X
		}
	}
	// lhs holds the selectors that are written, not read.
	lhs := make(map[ast.Expr]bool)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				fv := lhsField(l)
				if fv == nil {
					continue
				}
				lhs[ast.Unparen(l)] = true
				constant := len(n.Rhs) == len(n.Lhs) && n.Tok == token.ASSIGN &&
					info.Types[n.Rhs[i]].Value != nil
				if !constant || !defaulting(info, stack, fv) {
					written[fv] = true
				}
			}
		case *ast.IncDecStmt:
			if fv := lhsField(n.X); fv != nil {
				lhs[ast.Unparen(n.X)] = true
				written[fv] = true
			}
		case *ast.UnaryExpr:
			if fv := field(n.X); n.Op == token.AND && fv != nil {
				written[fv] = true
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if fv, ok := info.Uses[id].(*types.Var); ok {
							written[fv.Origin()] = true
						}
					}
				} else if i < st.NumFields() {
					written[st.Field(i).Origin()] = true
				}
			}
		case *ast.SelectorExpr:
			if fv := field(n); fv != nil && !lhs[n] {
				read[fv] = true
			}
		}
		return true
	})
}

// defaulting reports whether an if enclosing the innermost node of
// stack tests field fv (an Origin): the `if x.F == 0 { x.F = c }`
// idiom.
func defaulting(info *types.Info, stack []ast.Node, fv *types.Var) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		tests := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if se, ok := n.(*ast.SelectorExpr); ok {
				if sel := info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal &&
					sel.Obj().(*types.Var).Origin() == fv {
					tests = true
				}
			}
			return !tests
		})
		if tests {
			return true
		}
	}
	return false
}

// benchSelections parses the benchmark harness and returns the names
// it selects from module packages: "path.Name" for a package-level
// name and "path.)Name" for a method or field selected in a file that
// imports path. Names only, no type-checking: the harness is its own
// module, and a name match is enough to keep what it reads.
func benchSelections(dir string) (map[string]bool, error) {
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sel := make(map[string]bool)
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		imports := make(map[string]string) // local name → path
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := se.X.(*ast.Ident); ok && imports[x.Name] != "" {
				sel[imports[x.Name]+"."+se.Sel.Name] = true
				return true
			}
			for _, path := range imports {
				sel[path+".)"+se.Sel.Name] = true
			}
			return true
		})
	}
	return sel, nil
}

// TestDetLintCoversSimCore pins the exemption lists: the packages inside
// the equal-seed contract — the fault-plan compiler above all, whose
// entire purpose is deterministic randomness — must never drift into
// detExempt, or TestModuleClean would go blind to wall clocks and
// global rand exactly where they are most dangerous.
func TestDetLintCoversSimCore(t *testing.T) {
	for _, pkg := range []string{
		"hgw/internal/fault",
		"hgw/internal/sim",
		"hgw/internal/netem",
		"hgw/internal/nat",
		"hgw/internal/gateway",
	} {
		if detExempted(pkg) {
			t.Errorf("%s is exempt from detlint; sim-core packages must stay covered", pkg)
		}
	}
}

// TestLintCoversMemo pins the reuse stack (DESIGN.md §15) into the
// analyzers' coverage: internal/memo sits on the read/compute path of
// memoized runs, so a wall clock or an obs read-back there would be
// nondeterminism served from cache — the worst kind, because it
// replays. poollint needs no pin: it has no exemption list and covers
// the module wholesale.
func TestLintCoversMemo(t *testing.T) {
	const pkg = "hgw/internal/memo"
	if detExempted(pkg) {
		t.Errorf("%s is exempt from detlint; the memo path must stay covered", pkg)
	}
	if obsExempted(pkg) {
		t.Errorf("%s is exempt from obslint; memo may only write obs counters, never read them", pkg)
	}
}
