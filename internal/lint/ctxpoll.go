package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"fexipro/internal/lint/flow"
)

// CtxPoll enforces DESIGN.md §10's cancellation contract: every
// item-scan loop reachable from a context-carrying entry point
// (SearchContext, SearchAboveContext, TopK*Context, BatchTopKContext,
// or a kernel-shaped Scan) must poll cancellation on a CheckStride
// boundary. A scan loop is a for/range whose body directly offers
// candidates (Collector.Push), accumulates results (append of
// topk.Result), or recurses (tree descents). The poll may live in the
// loop itself, in an enclosing loop (the chunked-scan idiom), or at
// function entry before any loop (the per-node tree-descent idiom);
// loops that only run when ctx.Done() == nil (the guard-free fast path)
// are exempt. Without a poll, a deadline or client disconnect cannot
// stop the scan — the exact failure mode PR 3's serving guards exist to
// prevent.
//
// The analysis is interprocedural: a function that polls at entry
// (before any loop) is an ENTRY POLLER, and a call to an entry poller
// counts as a poll at the call site — one poll per call, regardless of
// how many items the callee then touches, which is exactly the per-node
// guarantee the tree-descent idiom relies on. Entry-pollerhood is a
// same-unit fixpoint (pollers chain through helpers) and crosses
// package boundaries via "entrypoll" facts: a loop whose only candidate
// polls are calls into OTHER packages is not judged in the unit pass —
// it exports a pending fact that the module phase resolves against the
// full fact set, reporting only if no callee actually polls at entry.
var CtxPoll = &Analyzer{
	Name:      "ctxpoll",
	Doc:       "scan loops reachable from SearchContext/Scan must poll cancellation every CheckStride items",
	Run:       runCtxPoll,
	RunModule: runCtxPollModule,
}

const (
	factEntryPoll   = "entrypoll"
	factPendingPoll = "pendingpoll"
)

// ctxEntryNames are the function names that root the reachability walk.
var ctxEntryNames = map[string]bool{
	"SearchContext":      true,
	"SearchAboveContext": true,
	"TopKAllContext":     true,
	"TopKJoinContext":    true,
	"BatchTopKContext":   true,
}

func runCtxPoll(pass *Pass) {
	// Test harnesses replay scans deliberately.
	cg, order := callGraph(nonTestFiles(pass.Fset, pass.Files), pass.Info)

	// Entry-poller fixpoint: a function polls at entry if it checks
	// cancellation outside any loop, where a call to an already-known
	// entry poller counts as a check. Chains of helpers converge in a
	// few rounds.
	pollers := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		for _, obj := range order {
			if !pollers[obj] && hasEntryPoll(pass, pollers, cg.Decls[obj]) {
				pollers[obj] = true
				changed = true
			}
		}
	}
	// Publish entry pollers for other units' pending loops — every unit
	// exports, even ones with no context entry points of their own.
	for _, obj := range order {
		if pollers[obj] {
			pass.ExportFact(cg.Decls[obj].Pos(), factEntryPoll, obj.(*types.Func).FullName())
		}
	}

	// Reachability from the entry points; a function reached from several
	// is reported under the first.
	reachable := make(map[types.Object]string)
	for _, entry := range order {
		fd := cg.Decls[entry]
		if !ctxEntryNames[fd.Name.Name] && !isKernelScanDecl(pass.Info, fd) {
			continue
		}
		for obj := range cg.Reachable([]types.Object{entry}) {
			if _, seen := reachable[obj]; !seen {
				reachable[obj] = fd.Name.Name
			}
		}
	}
	for obj, root := range reachable {
		checkScanLoops(pass, pollers, cg.Decls[obj], root)
	}
}

// runCtxPollModule resolves the pending loops: a loop whose candidate
// polls are cross-package calls is reported only if none of those
// callees is an entry poller anywhere in the module.
func runCtxPollModule(mp *ModulePass) {
	pollers := make(map[string]bool)
	for _, f := range mp.Facts {
		if f.Name == factEntryPoll {
			pollers[f.Value] = true
		}
	}
	for _, f := range mp.Facts {
		if f.Name != factPendingPoll {
			continue
		}
		root, callees, _ := strings.Cut(f.Value, "|")
		resolved := false
		for _, c := range strings.Split(callees, ",") {
			if pollers[c] {
				resolved = true
				break
			}
		}
		if !resolved {
			mp.Reportf(f.Pos,
				"scan loop reachable from %s cannot be cancelled: no search.Poll / ctx.Err / Done-channel check in this loop, an enclosing loop, or at function entry, and none of its cross-package callees (%s) polls at entry (DESIGN.md §10)",
				root, callees)
		}
	}
}

// isKernelScanDecl reports whether fd looks like engine.Kernel.Scan: a
// method named Scan whose first parameter is a context.Context.
func isKernelScanDecl(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "Scan" || fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return false
	}
	return isContextType(info.TypeOf(fd.Type.Params.List[0].Type))
}

// checkScanLoops flags every unsatisfied scan loop in fd. A loop that
// calls into other packages is not condemned locally: its candidate
// callees are exported as a pending fact and judged in the module phase
// against the full entry-poller set. A loop that only runs when the
// context is not cancellable — under the then-branch of an if, or a
// case, whose condition requires `doneChan == nil` (the guard-free fast
// path of the Naive scan) — is exempt.
func checkScanLoops(pass *Pass, pollers map[types.Object]bool, fd *ast.FuncDecl, root string) {
	entryPoll := hasEntryPoll(pass, pollers, fd)
	var visit func(n ast.Node, ancestorPolled, nilDone bool)
	visit = func(n ast.Node, ancestorPolled, nilDone bool) {
		switch s := n.(type) {
		case *ast.FuncLit:
			return // closures run on their own goroutine/schedule
		case *ast.ForStmt, *ast.RangeStmt:
			body := loopBody(s)
			polled := hasPoll(pass, pollers, body)
			if isScanLoop(pass, fd, body) && !polled && !ancestorPolled && !entryPoll && !nilDone {
				if exts := externalCallees(pass, body); len(exts) > 0 {
					pass.ExportFact(n.Pos(), factPendingPoll, root+"|"+strings.Join(exts, ","))
				} else {
					pass.Reportf(n.Pos(),
						"scan loop reachable from %s cannot be cancelled: no search.Poll / ctx.Err / Done-channel check in this loop, an enclosing loop, or at function entry (DESIGN.md §10)",
						root)
				}
			}
			for _, st := range body.List {
				visit(st, ancestorPolled || polled, nilDone)
			}
			return
		case *ast.IfStmt:
			if s.Init != nil {
				visit(s.Init, ancestorPolled, nilDone)
			}
			visit(s.Body, ancestorPolled, nilDone || condRequiresNilDone(pass, s.Cond))
			if s.Else != nil {
				visit(s.Else, ancestorPolled, nilDone)
			}
			return
		case *ast.CaseClause:
			guarded := nilDone || slices.ContainsFunc(s.List, func(e ast.Expr) bool { return condRequiresNilDone(pass, e) })
			for _, st := range s.Body {
				visit(st, ancestorPolled, guarded)
			}
			return
		}
		// Generic recursion over child statements.
		children(n, func(c ast.Node) { visit(c, ancestorPolled, nilDone) })
	}
	for _, st := range fd.Body.List {
		visit(st, false, false)
	}
}

// externalCallees lists the qualified names of functions from OTHER
// packages called anywhere in body (closures excluded) — the candidate
// entry pollers the module phase resolves.
func externalCallees(pass *Pass, body *ast.BlockStmt) []string {
	var out []string
	seen := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := flow.Callee(pass.Info, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg() == pass.Pkg {
			return true
		}
		fn, ok := callee.(*types.Func)
		if !ok {
			return true
		}
		if name := fn.FullName(); !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
		return true
	})
	return out
}

// loopBody returns the body block of a for or range statement.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch s := n.(type) {
	case *ast.ForStmt:
		return s.Body
	case *ast.RangeStmt:
		return s.Body
	}
	return nil
}

// children invokes f for the statement-bearing children of n, without
// descending into expressions (loops inside expressions only occur via
// FuncLits, which are out of scope).
func children(n ast.Node, f func(ast.Node)) {
	switch s := n.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			f(st)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			f(s.Init)
		}
		f(s.Body)
		if s.Else != nil {
			f(s.Else)
		}
	case *ast.SwitchStmt:
		f(s.Body)
	case *ast.TypeSwitchStmt:
		f(s.Body)
	case *ast.SelectStmt:
		f(s.Body)
	case *ast.CaseClause:
		for _, st := range s.Body {
			f(st)
		}
	case *ast.CommClause:
		for _, st := range s.Body {
			f(st)
		}
	case *ast.LabeledStmt:
		f(s.Stmt)
	}
}

// isScanLoop reports whether body directly (not through a nested loop
// or closure) does per-item work: offers to a Collector, accumulates
// topk.Results, or recurses into the enclosing function.
func isScanLoop(pass *Pass, fd *ast.FuncDecl, body *ast.BlockStmt) bool {
	found := false
	shallowInspect(body, func(n ast.Node) {
		if found {
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Push" && isNamed(pass.TypeOf(fun.X), "Collector") {
				found = true
			}
			if pass.Info.Uses[fun.Sel] != nil && pass.Info.Uses[fun.Sel] == pass.Info.Defs[fd.Name] {
				found = true // recursive method call (tree descent)
			}
		case *ast.Ident:
			if fun.Name == "append" && appendsResult(pass, call) {
				found = true
			}
			if pass.Info.Uses[fun] != nil && pass.Info.Uses[fun] == pass.Info.Defs[fd.Name] {
				found = true // recursive function call
			}
		}
	})
	return found
}

// shallowInspect walks body but does not descend into nested for/range
// loops or function literals.
func shallowInspect(body *ast.BlockStmt, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}

// isNamed reports whether t is (a pointer to) a named type called name,
// the by-name match that lets fixtures mimic topk.Collector,
// search.SharedThreshold and search.Stats.
func isNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// appendsResult reports whether an append call grows a slice of a type
// named Result (topk.Result accumulation, the SearchAbove idiom).
func appendsResult(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	t := pass.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem := sl.Elem()
	if p, ok := elem.(*types.Pointer); ok {
		elem = p.Elem()
	}
	named, ok := elem.(*types.Named)
	return ok && named.Obj().Name() == "Result"
}

// hasPoll reports whether n contains a cancellation check at any
// depth, excluding closures: a call to a function named Poll, a
// ctx.Err() call, a receive from a Done channel (directly or in a
// select), or a call to a same-unit entry poller.
func hasPoll(pass *Pass, pollers map[types.Object]bool, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch e := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			found = isPollCall(pass, pollers, e)
		case *ast.UnaryExpr:
			found = isDoneReceive(pass, e)
		}
		return true
	})
	return found
}

// isPollCall recognizes search.Poll-style calls, ctx.Err(), and calls
// to same-unit entry pollers (the interprocedural upgrade: one call =
// one guaranteed poll).
func isPollCall(pass *Pass, pollers map[types.Object]bool, call *ast.CallExpr) bool {
	if len(pollers) > 0 {
		if callee := flow.Callee(pass.Info, call); callee != nil && pollers[callee] {
			return true
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		if id, ok := call.Fun.(*ast.Ident); ok {
			return id.Name == "Poll"
		}
		return false
	}
	if sel.Sel.Name == "Poll" {
		return true
	}
	if sel.Sel.Name == "Err" && isContextType(pass.TypeOf(sel.X)) {
		return true
	}
	return false
}

// isDoneReceive recognizes `<-done` / `<-ctx.Done()` receives, where
// done is a receive-only struct{} channel (the ctx.Done() shape).
func isDoneReceive(pass *Pass, e *ast.UnaryExpr) bool {
	if e.Op.String() != "<-" {
		return false
	}
	return isDoneChanType(pass.TypeOf(e.X))
}

// isDoneChanType matches <-chan struct{}, the type of ctx.Done().
func isDoneChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || ch.Dir() != types.RecvOnly {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// hasEntryPoll reports whether fd polls cancellation outside any loop —
// the per-call poll of recursive tree descents, which covers every loop
// in the function body (each node visit re-polls). Calls to same-unit
// entry pollers count, so pollerhood chains through helpers.
func hasEntryPoll(pass *Pass, pollers map[types.Object]bool, fd *ast.FuncDecl) bool {
	found := false
	stopped := false // a loop was reached: later polls cover nothing
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		if found || stopped {
			return
		}
		switch s := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// Polls inside loops do not cover the whole call, and a poll
			// AFTER a loop runs too late to cancel it: stop the scan.
			stopped = true
			return
		case *ast.FuncLit:
			return // closures run on their own schedule
		case *ast.IfStmt:
			// Both the condition and the guarded body count: the stride
			// guard idiom wraps the Poll call in an if.
			if hasPoll(pass, pollers, s.Cond) {
				found = true
				return
			}
			if s.Init != nil {
				visit(s.Init)
			}
			visit(s.Body)
			if s.Else != nil {
				visit(s.Else)
			}
			return
		case *ast.ExprStmt:
			if hasPoll(pass, pollers, s.X) {
				found = true
			}
			return
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				if hasPoll(pass, pollers, r) {
					found = true
				}
			}
			return
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if hasPoll(pass, pollers, r) {
					found = true
				}
			}
			return
		case *ast.SelectStmt:
			ast.Inspect(s, func(m ast.Node) bool {
				if u, ok := m.(*ast.UnaryExpr); ok && isDoneReceive(pass, u) {
					found = true
				}
				return !found
			})
			return
		}
		children(n, visit)
	}
	for _, st := range fd.Body.List {
		visit(st)
		if found || stopped {
			break
		}
	}
	return found
}

// condRequiresNilDone reports whether cond (possibly an && conjunction)
// includes a `doneChan == nil` test.
func condRequiresNilDone(pass *Pass, cond ast.Expr) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return condRequiresNilDone(pass, e.X)
	case *ast.BinaryExpr:
		switch e.Op.String() {
		case "&&":
			return condRequiresNilDone(pass, e.X) || condRequiresNilDone(pass, e.Y)
		case "==":
			if isNilIdent(e.Y) && isDoneChanType(pass.TypeOf(e.X)) {
				return true
			}
			if isNilIdent(e.X) && isDoneChanType(pass.TypeOf(e.Y)) {
				return true
			}
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
