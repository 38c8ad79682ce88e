package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsLint enforces the telemetry no-feedback rule (DESIGN.md §13):
// deterministic packages — everything the equal-seed contract covers —
// may only WRITE the obs package's instruments. Reading a counter back
// (Snapshot, Merge, ProcStats.Snapshot, BucketBounds, ...) from inside
// the simulation would let telemetry influence the run, silently
// breaking byte-identical replay, so every obs call outside the write
// allowlist is flagged. The merge boundary — the hgw root package's
// runner, the CLIs, the service — is exempt: reading snapshots after a
// shard's completion signal is exactly its job.
var ObsLint = &Analyzer{
	Name: "obslint",
	Doc:  "flag non-write obs package calls from deterministic packages (telemetry must not feed back)",
	Run:  runObsLint,
}

// obsExempt lists the packages allowed to read telemetry (exact path,
// or prefix when ending in "/"): the run/merge boundary and the
// operational edge. The obs package itself and this lint package are
// exempt trivially.
var obsExempt = []string{
	"hgw",
	"hgw/cmd/",
	"hgw/internal/service",
	"hgw/internal/lint",
	"hgw/internal/obs",
}

func obsExempted(pkgPath string) bool {
	// Normalize the test variants cmd/go hands the vettool mode, like
	// detlint does: "pkg [pkg.test]" and "pkg_test [pkg.test]" share
	// pkg's exemption.
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	pkgPath = strings.TrimSuffix(pkgPath, "_test")
	for _, e := range obsExempt {
		if strings.HasSuffix(e, "/") {
			if strings.HasPrefix(pkgPath, e) {
				return true
			}
		} else if pkgPath == e {
			return true
		}
	}
	return false
}

// isObsPath matches the telemetry package in both the real module
// (hgw/internal/obs) and the test fixtures (a package whose path ends
// in "obs").
func isObsPath(path string) bool {
	return path == "obs" || strings.HasSuffix(path, "/obs")
}

// obsWriteAllowed lists the obs functions and methods deterministic
// packages may call: the nil-safe Registry write API, registry
// construction (attaching a registry is configuration, not feedback),
// and the ProcStats write methods. Everything else — snapshots,
// merges, bucket metadata, the wall-clock helpers — is read-side.
var obsWriteAllowed = map[string]bool{
	// Registry writes.
	"Inc":      true,
	"Add":      true,
	"VecInc":   true,
	"GaugeInc": true,
	"GaugeDec": true,
	"GaugeSet": true,
	"Observe":  true,
	"Trace":    true,
	// Construction.
	"NewRegistry": true,
	// ProcStats writes.
	"AddPool":     true,
	"SimProcUp":   true,
	"SimProcDown": true,
	"ShardUp":     true,
	"ShardDown":   true,
}

func runObsLint(pass *Pass) error {
	if obsExempted(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		// Test files are the verification harness: they assert counters
		// by reading snapshots, and a readback there cannot reach a
		// production run.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			id := calleeIdent(n)
			if id == nil {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg() == pass.Pkg || !isObsPath(fn.Pkg().Path()) {
				return true
			}
			if obsWriteAllowed[fn.Name()] {
				return true
			}
			pass.Reportf(id.Pos(),
				"obs.%s reads telemetry from a deterministic package: instruments are write-only here, move the read to the merge boundary (hgw root, cmd, service)",
				fn.Name())
			return true
		})
	}
	return nil
}

// calleeIdent returns the identifier a call or method expression binds
// to, for both obs.F(...) selector calls and method calls on obs
// values (r.Inc(...), obs.Proc.Snapshot()).
func calleeIdent(n ast.Node) *ast.Ident {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel
	case *ast.Ident:
		return fun
	}
	return nil
}
