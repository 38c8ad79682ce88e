package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolLint enforces DESIGN.md §9: a pooled buffer, frame or packet
// record drawn from a simulator domain's netpkt.Pool (its GetBuf,
// GetFrame, GetPacket and ParsePooled methods) is owned by the scope
// that drew it until it is handed to exactly one consumer. Within the
// function that drew a pooled value it flags the escapes that break
// the recycling contract:
//
//   - storing the raw value into a struct field, slice/map element or
//     composite literal (retention past the owner's scope);
//   - returning the raw value (ownership leaves without a Clone — the
//     pool API itself transfers by convention and is annotated);
//   - capturing the value in a closure (a callback scheduled on sim may
//     run after the buffer was recycled);
//   - calling Pool.PutBuf on a buffer while a zero-copy view of it is
//     still used on a path after the call. The buffer may be one the
//     function drew, a field a view was parsed from (PutBuf(f.Payload)
//     after ParseIPv4(f.Payload)), or the buffer a packet owns
//     (PutBuf(ip.Buf) or PutBuf(b) after b := ip.Buf, for a
//     netpkt.IPv4 whose Options and Payload alias it; resetting ip.Buf
//     afterwards is not a use). So a packet record goes back with
//     PutPacket before its buffer.
//
// In any function it also flags a packet record used on a path after
// Pool.PutPacket recycled it, or after it was handed to the host
// stack's Send or SendVia, which recycle a pooled record once it is on
// the wire.
//
// netpkt.Clone severs aliasing: a cloned value is not tracked. The
// sanctioned handoff — building a Frame and passing it to a send/
// forward call — is untracked too (the frame travels as a call
// argument, which transfers ownership).
var PoolLint = &Analyzer{
	Name: "poollint",
	Doc:  "flag pooled netpkt buffers/frames/packet records escaping their ownership scope, premature PutBuf/PutPacket and use after Send",
	Run:  runPoolLint,
}

func runPoolLint(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			if isPoolAPI(pass, fd) {
				return false
			}
			checkPoolFunc(pass, fd)
			return false
		})
	}
	return nil
}

// isPoolAPI reports whether fd is part of the pool implementation
// itself, a method of netpkt's Pool (GetBuf returning a pooled buffer
// is its contract).
func isPoolAPI(pass *Pass, fd *ast.FuncDecl) bool {
	if !isNetpktPath(pass.PkgPath) || fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	return isNetpktPool(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type))
}

// isNetpktPath matches the packet-codec package in both the real module
// (hgw/internal/netpkt) and the test fixtures (a package whose path
// ends in "netpkt").
func isNetpktPath(path string) bool {
	return path == "netpkt" || strings.HasSuffix(path, "/netpkt")
}

// poolFunc recognizes calls into netpkt by name and defining package:
// methods of its Pool type (the pool API: draws, recycles and
// ParsePooled), reported with method set, and package-level functions
// (the codecs' ParseX). Methods of other netpkt types are neither.
func poolFunc(pass *Pass, call *ast.CallExpr) (name string, method, ok bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	default:
		return "", false, false
	}
	fn, ok2 := obj.(*types.Func)
	if !ok2 || fn.Pkg() == nil || !isNetpktPath(fn.Pkg().Path()) {
		return "", false, false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return fn.Name(), true, isNetpktPool(recv.Type())
	}
	return fn.Name(), false, true
}

// isNetpktPool reports whether t is netpkt.Pool or a pointer to it.
func isNetpktPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Pool" && n.Obj().Pkg() != nil && isNetpktPath(n.Obj().Pkg().Path())
}

// poolSource describes a tracked pooled value.
type poolSource struct {
	kind string // "buffer", "frame" or "packet"
}

// poolKinds maps each drawing method of Pool to the kind of value it
// returns.
var poolKinds = map[string]string{"GetBuf": "buffer", "GetFrame": "frame", "GetPacket": "packet", "ParsePooled": "packet"}

// checkPoolFunc analyzes one function declaration.
func checkPoolFunc(pass *Pass, fd *ast.FuncDecl) {
	// Pass 1: find tracked pooled values (idents assigned directly from
	// a Pool draw) and aliases (zero-copy views parsed from a
	// tracked buffer, or subslices of one).
	tracked := make(map[types.Object]poolSource)
	// owner records the innermost function literal in which each
	// tracked value was drawn (nil = the declaration's own body): a use
	// in any *other* function literal is a capture.
	owner := make(map[types.Object]*ast.FuncLit)
	aliasOf := make(map[types.Object]types.Object) // view -> tracked buffer
	// fieldViews records views parsed from a buffer-valued field
	// (f.Payload), keyed by the field expression.
	fieldViews := make(map[string][]types.Object)
	// bufOf records locals holding a packet's buffer (b := ip.Buf):
	// recycling b recycles what the packet's views alias.
	bufOf := make(map[types.Object]types.Object)
	propagate := func(as *ast.AssignStmt, curLit *ast.FuncLit) {
		if len(as.Rhs) != 1 {
			return
		}
		switch rhs := as.Rhs[0].(type) {
		case *ast.CallExpr:
			name, method, ok := poolFunc(pass, rhs)
			if kind := poolKinds[name]; ok && method && kind != "" {
				// The drawn value is the first result (ParsePooled's
				// second is its error).
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					if obj := lhsObj(pass, id); obj != nil {
						tracked[obj] = poolSource{kind: kind}
						owner[obj] = curLit
					}
				}
				if name != "ParsePooled" {
					return
				}
			}
			// v, ok := netpkt.ParseX(buf) or pool.ParsePooled(buf): v
			// aliases buf.
			if ok && strings.HasPrefix(name, "Parse") {
				var base types.Object
				field := ""
				for _, arg := range rhs.Args {
					if sel, ok := arg.(*ast.SelectorExpr); ok && field == "" {
						field = exprString(sel)
					}
					if id, ok := arg.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Uses[id]; obj != nil {
							if _, isTracked := tracked[obj]; isTracked {
								base = obj
								break
							}
							if b, isAlias := aliasOf[obj]; isAlias {
								base = b
								break
							}
						}
					}
				}
				if base == nil && field == "" {
					return
				}
				for _, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if obj := lhsObj(pass, id); obj != nil {
						if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsBoolean != 0 {
							continue // the ok result
						}
						if _, isErr := obj.Type().Underlying().(*types.Interface); isErr {
							continue // the error result
						}
						if base != nil {
							aliasOf[obj] = base
						} else {
							fieldViews[field] = append(fieldViews[field], obj)
						}
					}
				}
			}
		case *ast.SelectorExpr:
			// b := ip.Buf holds the buffer packet ip owns.
			if id, ok := rhs.X.(*ast.Ident); ok && rhs.Sel.Name == "Buf" && len(as.Lhs) == 1 && isNetpktIPv4(pass.TypesInfo.TypeOf(id)) {
				if lid, ok := as.Lhs[0].(*ast.Ident); ok {
					if lobj := lhsObj(pass, lid); lobj != nil {
						bufOf[lobj] = pass.TypesInfo.Uses[id]
					}
				}
			}
		case *ast.SliceExpr:
			// p := buf[i:j] aliases buf.
			if id, ok := rhs.X.(*ast.Ident); ok && len(as.Lhs) == 1 {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					base := obj
					if b, isAlias := aliasOf[obj]; isAlias {
						base = b
					}
					if _, isTracked := tracked[base]; isTracked {
						if lid, ok := as.Lhs[0].(*ast.Ident); ok {
							if lobj := lhsObj(pass, lid); lobj != nil {
								aliasOf[lobj] = base
							}
						}
					}
				}
			}
		case *ast.Ident:
			// b2 := buf propagates tracking.
			if obj := pass.TypesInfo.Uses[rhs]; obj != nil && len(as.Lhs) == 1 {
				if src, isTracked := tracked[obj]; isTracked {
					if id, ok := as.Lhs[0].(*ast.Ident); ok {
						if lobj := lhsObj(pass, id); lobj != nil {
							tracked[lobj] = src
							owner[lobj] = curLit
						}
					}
				}
			}
		}
	}
	var scan func(n ast.Node, curLit *ast.FuncLit)
	scan = func(n ast.Node, curLit *ast.FuncLit) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m != n {
					scan(m.Body, m)
					return false
				}
			case *ast.AssignStmt:
				propagate(m, curLit)
			}
			return true
		})
	}
	scan(fd.Body, nil)
	checkPrematurePut(pass, fd, tracked, aliasOf, fieldViews, bufOf)
	checkPacketHandoff(pass, fd)
	if len(tracked) == 0 {
		return
	}

	trackedIdent := func(e ast.Expr) (types.Object, string, bool) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil, "", false
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return nil, "", false
		}
		src, ok := tracked[obj]
		return obj, src.kind, ok
	}

	// Pass 2: violations.
	var walk func(n ast.Node, curLit *ast.FuncLit, captured map[types.Object]bool)
	walk = func(n ast.Node, curLit *ast.FuncLit, captured map[types.Object]bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m == n {
					return true
				}
				// Everything referenced inside runs later: report each
				// pooled value drawn OUTSIDE this literal once, at its
				// first use inside it.
				walk(m.Body, m, make(map[types.Object]bool))
				return false
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[m]; obj != nil && !captured[obj] {
					if src, ok := tracked[obj]; ok && owner[obj] != curLit {
						captured[obj] = true
						pass.Reportf(m.Pos(), "pooled %s %q captured by closure: it may be recycled before the closure runs; Clone it or annotate the handoff", src.kind, m.Name)
					}
				}
				return true
			case *ast.AssignStmt:
				for i, lhs := range m.Lhs {
					if len(m.Rhs) != len(m.Lhs) {
						break
					}
					obj, kind, ok := trackedIdent(m.Rhs[i])
					if !ok {
						continue
					}
					switch lhs.(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						pass.Reportf(m.Pos(), "pooled %s %q stored in %s escapes its ownership scope; Clone it first or annotate", kind, obj.Name(), exprString(lhs))
					}
				}
				return true
			case *ast.CompositeLit:
				for _, elt := range m.Elts {
					v := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if obj, kind, ok := trackedIdent(v); ok {
						pass.Reportf(v.Pos(), "pooled %s %q stored in composite literal escapes its ownership scope; Clone it first or annotate", kind, obj.Name())
					}
				}
				return true
			case *ast.ReturnStmt:
				for _, r := range m.Results {
					if obj, kind, ok := trackedIdent(r); ok {
						pass.Reportf(r.Pos(), "returning pooled %s %q transfers ownership implicitly; Clone it, document the transfer with an annotation, or recycle locally", kind, obj.Name())
					}
				}
				return true
			}
			return true
		})
	}
	walk(fd.Body, nil, make(map[types.Object]bool))
}

// checkPrematurePut reports each Pool.PutBuf call in fd after which
// a zero-copy view of the recycled buffer is still used on some path:
// the recycled bytes are then still reachable.
func checkPrematurePut(pass *Pass, fd *ast.FuncDecl, tracked map[types.Object]poolSource, aliasOf map[types.Object]types.Object, fieldViews map[string][]types.Object, bufOf map[types.Object]types.Object) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, method, ok := poolFunc(pass, call)
		if !ok || !method || name != "PutBuf" || len(call.Args) != 1 {
			return true
		}
		var views []types.Object
		var owner types.Object // a packet whose Buf is recycled
		arg := call.Args[0]
		switch a := arg.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[a]
			if pkt, ok := bufOf[obj]; ok {
				owner = pkt
				break
			}
			if _, ok := tracked[obj]; !ok {
				return true
			}
			for view, base := range aliasOf {
				if base == obj {
					views = append(views, view)
				}
			}
		case *ast.SelectorExpr:
			views = fieldViews[exprString(a)]
			if id, ok := a.X.(*ast.Ident); ok && a.Sel.Name == "Buf" && isNetpktIPv4(pass.TypesInfo.TypeOf(id)) {
				owner = pass.TypesInfo.Uses[id]
			}
		}
		regions := reachableAfter(fd.Body, call)
		for _, view := range views {
			if use := usedIn(pass, fd.Body, regions, view, false); use.IsValid() {
				pass.Reportf(call.Pos(), "PutBuf(%s) while zero-copy view %q parsed from it is still used at %s; recycle after the last use or Clone the view", exprString(arg), view.Name(), pass.Fset.Position(use))
			}
		}
		if owner != nil {
			if use := usedIn(pass, fd.Body, regions, owner, true); use.IsValid() {
				pass.Reportf(call.Pos(), "PutBuf(%s) while packet %q, whose views alias it, is still used at %s; recycle after the packet's last use", exprString(arg), owner.Name(), pass.Fset.Position(use))
			}
		}
		return true
	})
}

// checkPacketHandoff reports each use of a packet record on a path
// after a call that ends the record's life: Pool.PutPacket(ip), or
// Send/SendVia of the host stack, which recycles a pooled record once
// the packet is on the wire. The record need not have been drawn here:
// a parameter may be a pooled record the stack handed in.
func checkPacketHandoff(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, method, ok := poolFunc(pass, call)
		putPacket := ok && method && name == "PutPacket"
		if !putPacket && !isHostSend(pass, call) {
			return true
		}
		var regions []span
		for _, arg := range call.Args {
			id, ok := arg.(*ast.Ident)
			if !ok || !isNetpktIPv4(pass.TypesInfo.TypeOf(id)) {
				continue
			}
			if regions == nil {
				regions = reachableAfter(fd.Body, call)
			}
			use := usedIn(pass, fd.Body, regions, pass.TypesInfo.Uses[id], false)
			switch {
			case !use.IsValid():
			case putPacket:
				pass.Reportf(call.Pos(), "PutPacket(%s) while the record is still used at %s; recycle it after its last use", id.Name, pass.Fset.Position(use))
			default:
				pass.Reportf(call.Pos(), "packet %q is used at %s after %s took it over: the host recycles a pooled record once it is on the wire", id.Name, pass.Fset.Position(use), exprString(call.Fun))
			}
		}
		return true
	})
}

// isHostSend reports whether call is Send or SendVia of the host
// stack's Host (hgw/internal/stack, or a fixture package "stack").
func isHostSend(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Send" && sel.Sel.Name != "SendVia" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "Host" || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == "stack" || strings.HasSuffix(path, "/stack")
}

// isNetpktIPv4 reports whether t is netpkt.IPv4 or a pointer to it.
func isNetpktIPv4(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "IPv4" && n.Obj().Pkg() != nil && isNetpktPath(n.Obj().Pkg().Path())
}

// span is a half-open source range [from, to).
type span struct{ from, to token.Pos }

// reachableAfter returns the source ranges that can run after call
// within its function literal or declaration, read as straight-line
// code: the rest of each enclosing statement list, innermost first,
// up to and including the first return, branch or panic, which ends
// the path. Loops are not followed back to their start.
func reachableAfter(body *ast.BlockStmt, call *ast.CallExpr) []span {
	var path []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || path != nil && path[len(path)-1] == call {
			return false
		}
		if n.Pos() <= call.Pos() && call.End() <= n.End() {
			path = append(path, n)
			return n != call
		}
		return false
	})
	var regions []span
	for i := len(path) - 2; i >= 0; i-- {
		var list []ast.Stmt
		switch n := path[i].(type) {
		case *ast.FuncLit:
			return regions
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		}
		for j, s := range list {
			if s != path[i+1] {
				continue
			}
			for _, rest := range list[j+1:] {
				regions = append(regions, span{rest.Pos(), rest.End()})
				if terminates(rest) {
					return regions
				}
			}
		}
	}
	return regions
}

// terminates reports whether s ends a straight-line path.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if c, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// usedIn returns the position of the first use of obj inside regions,
// or token.NoPos. With skipBuf, uses of the form obj.Buf (clearing the
// recycled field) do not count.
func usedIn(pass *Pass, body *ast.BlockStmt, regions []span, obj types.Object, skipBuf bool) token.Pos {
	var found token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && skipBuf && sel.Sel.Name == "Buf" {
			if id, ok := sel.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				return false
			}
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		for _, r := range regions {
			if r.from <= id.Pos() && id.Pos() < r.to {
				found = id.Pos()
				return false
			}
		}
		return true
	})
	return found
}

// lhsObj resolves the object an assignment LHS ident binds or uses.
func lhsObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}
