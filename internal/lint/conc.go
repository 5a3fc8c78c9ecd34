package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// conc.go holds the concurrency model shared by the locks and
// goroutinelife analyzers: classifying sync primitives, flattening
// receiver chains, the per-body lock record (Lock/Unlock events paired
// into lexical held regions, once per body), and resolving a mutex
// expression to its canonical whole-program name.

// factSep joins the fields of a locks or goroutinelife fact value.
const factSep = "|"

// lockEvent is one Lock/RLock/Unlock/RUnlock call observed in a
// function body, in source order.
type lockEvent struct {
	path    string   // flattened receiver chain, e.g. "s.mu"
	name    string   // Lock, RLock, Unlock, RUnlock
	expr    ast.Expr // the mutex expression (receiver of the call)
	pos     token.Pos
	selPos  token.Pos // position of the method name ident
	defered bool
}

// lockRegion is one lexical held span: from a Lock/RLock to its
// matching release, or to the body end when the release is deferred or
// missing.
type lockRegion struct {
	path string   // flattened receiver chain, e.g. "s.mu"
	expr ast.Expr // the mutex expression at the Lock site
	read bool     // RLock
	pos  token.Pos
	end  token.Pos
	open bool // no matching release in this body
}

// covers reports whether p falls strictly inside the held span.
func (r lockRegion) covers(p token.Pos) bool {
	return r.pos < p && p < r.end
}

// lockBody is the lock record of one function body: a declaration, or
// a function literal inside one (literals run on their own schedule —
// often a goroutine — so each is its own context with its own regions).
type lockBody struct {
	ctx  string       // types.Func.FullName, plus "$<i>" for the i-th literal
	fn   types.Object // the declared function; nil for a literal
	body *ast.BlockStmt
	// lockedRecv is the receiver of a method named *Locked — by this
	// tree's convention its caller holds the lock — and nil otherwise.
	lockedRecv types.Object
	regions    []lockRegion // matched, then open, in Lock order
	deferTypos []lockEvent  // `defer mu.Lock()`
}

// lockBodies enumerates the unit's non-test function bodies — each
// declaration, then its function literals numbered in ast.Inspect
// pre-order — and pairs each body's lock events into regions once, for
// every rule of the locks analyzer to read.
func lockBodies(pass *Pass) []*lockBody {
	var out []*lockBody
	add := func(ctx string, fn types.Object, body *ast.BlockStmt) *lockBody {
		b := &lockBody{ctx: ctx, fn: fn, body: body}
		b.regions, b.deferTypos = pairLockRegions(collectLockEvents(pass, body), body.End())
		out = append(out, b)
		return b
	}
	for _, file := range nonTestFiles(pass.Fset, pass.Files) {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			ctx := funcFullName(obj)
			b := add(ctx, obj, fd.Body)
			if sig := obj.Type().(*types.Signature); sig.Recv() != nil && strings.HasSuffix(fd.Name.Name, "Locked") {
				b.lockedRecv = sig.Recv()
			}
			i := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					i++
					add(fmt.Sprintf("%s$%d", ctx, i), nil, fl.Body)
				}
				return true
			})
		}
	}
	return out
}

// collectLockEvents walks body for mutex Lock/RLock/Unlock/RUnlock
// calls in source order. Function literals are skipped — they are
// bodies of their own.
func collectLockEvents(pass *Pass, body *ast.BlockStmt) []lockEvent {
	var events []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		var call *ast.CallExpr
		defered := false
		switch s := n.(type) {
		case *ast.DeferStmt:
			call = s.Call
			defered = true
		case *ast.CallExpr:
			call = s
		default:
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock", "Unlock", "RUnlock":
		default:
			return true
		}
		if !isMutexType(pass.TypeOf(sel.X)) {
			return true
		}
		path := flattenChain(sel.X)
		if path == "" {
			return true
		}
		events = append(events, lockEvent{
			path: path, name: sel.Sel.Name, expr: sel.X,
			pos: call.Pos(), selPos: sel.Sel.Pos(), defered: defered,
		})
		return !defered // a DeferStmt's call was handled; skip re-visiting it
	})
	return events
}

// pairLockRegions matches each Lock/RLock event to its positionally
// next same-path release. A Lock with no release still makes a region
// — open, running to the body end: the lock stays held past everything
// after it. `defer mu.Lock()` makes none; it is returned as a typo.
func pairLockRegions(events []lockEvent, bodyEnd token.Pos) (regions []lockRegion, deferTypos []lockEvent) {
	used := make([]bool, len(events))
	var open []lockRegion
	for i, ev := range events {
		if ev.name != "Lock" && ev.name != "RLock" {
			// Matched from the Lock side; stray unlocks (no earlier lock)
			// are cross-function handoffs — out of scope.
			continue
		}
		if ev.defered {
			deferTypos = append(deferTypos, ev)
			continue
		}
		region := lockRegion{path: ev.path, expr: ev.expr, read: ev.name == "RLock", pos: ev.pos, end: bodyEnd, open: true}
		unlock := unlockName(ev.name)
		for j := i + 1; j < len(events); j++ {
			if used[j] || events[j].path != ev.path || events[j].name != unlock {
				continue
			}
			used[j] = true
			region.open = false
			if !events[j].defered {
				region.end = events[j].pos
			}
			break
		}
		if region.open {
			open = append(open, region)
		} else {
			regions = append(regions, region)
		}
	}
	return append(regions, open...), deferTypos
}

// unlockName is the release that matches lock ("Lock" or "RLock").
func unlockName(lock string) string {
	if lock == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// globalLockName resolves a mutex expression to its canonical
// whole-program name: "pkg.Type.field" for struct-field mutexes (the
// shape every shared lock in this tree has) and "pkg.var" for
// package-level mutex variables. Locals, map entries, and call results
// return "" — they cannot participate in a global ordering.
func globalLockName(pass *Pass, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pass.Info.Uses[x].(*types.Var); ok && !v.IsField() && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if named := namedRecv(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + x.Sel.Name
			}
			return ""
		}
		// Qualified package-level var: pkg.someMu.
		if id, ok := x.X.(*ast.Ident); ok {
			if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Name() + "." + x.Sel.Name
			}
		}
	}
	return ""
}

// namedRecv peels pointers (and aliases) off a receiver type down to
// its named form, or nil.
func namedRecv(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// isMutexType matches sync.Mutex / sync.RWMutex (or pointers to them);
// named types embedding them are out of scope by design — every shared
// lock in this tree is a plain field.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isWaitGroupType matches sync.WaitGroup (or a pointer to it).
func isWaitGroupType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// isContextType matches context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// flattenChain renders an ident/selector chain ("s.mu"); returns "" for
// anything more exotic (map index, call result), which the analyzers
// skip rather than misjudge.
func flattenChain(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := flattenChain(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return flattenChain(x.X)
	}
	return ""
}

// funcFullName renders a function or method object in the canonical
// cross-package form go/types uses (e.g.
// "(*fexipro/internal/snap.WAL).Append"), the join key between call
// facts and acquisition facts.
func funcFullName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}
