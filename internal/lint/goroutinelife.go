package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineLife requires every `go` statement to carry a statically
// provable termination or join edge (DESIGN.md §12). A goroutine body
// is accepted when any of these holds:
//
//   - join: a top-level `defer wg.Done()` on a sync.WaitGroup — the
//     launcher's Wait is the join edge;
//   - cancel: every infinite (`for {}`) loop contains a select arm
//     receiving from ctx.Done() whose body returns or breaks;
//   - drain: every `for range ch` over a channel either ranges over a
//     channel the launching function closes, or the loop body has an
//     explicit break/return exit arm (the signal-loop idiom);
//   - bounded: the body has no infinite loops or channel ranges at all,
//     so it runs to completion on its own.
//
// Named callees are judged by the same rules against their own bodies;
// the verdicts travel as Facts, so `go pkg.Worker()` is checked across
// package boundaries in the module phase. A callee whose body is
// outside the module (stdlib, interface method, function value) cannot
// be proven and is flagged — wrap it in a closure with an explicit join
// edge.
//
// Two launcher-side hazards are flagged alongside: wg.Add inside the
// launched body (races with Wait), and an early return between wg.Add
// and the `go` launch with no compensating Done — the classic
// leak-on-error path that makes Wait hang.
//
// Test files are skipped (test goroutines are joined by the test
// runner's scope or deliberately hostile).
var GoroutineLife = &Analyzer{
	Name:      "goroutinelife",
	Doc:       "every go statement needs a provable termination/join edge (WaitGroup, ctx.Done, channel close, or bounded body)",
	Run:       runGoroutineLifeUnit,
	RunModule: runGoroutineLifeModule,
}

const glOK = "ok"

func runGoroutineLifeUnit(pass *Pass) {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Export this body's verdict so cross-package go sites can
			// join against it in the module phase.
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				if fn := funcFullName(obj); fn != "" {
					pass.ExportFact(fd.Pos(), "body", fn+factSep+bodyVerdict(pass, fd.Body, closedChans(pass, fd.Body)))
				}
			}
			glWalkBody(pass, fd.Body)
		}
	}
}

// glWalkBody analyzes one function body (a declaration or a literal):
// it judges every `go` statement launched at this level, checks the
// wg.Add/launch ordering, and recurses into nested function literals as
// their own contexts.
func glWalkBody(pass *Pass, body *ast.BlockStmt) {
	closed := closedChans(pass, body)

	type glEvent struct {
		kind string // add, done, go, ret
		pos  token.Pos
	}
	var events []glEvent
	var lits []*ast.FuncLit

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, s)
			return false
		case *ast.GoStmt:
			events = append(events, glEvent{kind: "go", pos: s.Pos()})
			judgeGoStmt(pass, s, closed)
			// The launched literal is its own context for nested go
			// statements; skip it here and recurse below.
			if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
				lits = append(lits, fl)
				return false
			}
		case *ast.ReturnStmt:
			events = append(events, glEvent{kind: "ret", pos: s.Pos()})
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok && isWaitGroupType(pass.TypeOf(sel.X)) {
				switch sel.Sel.Name {
				case "Add":
					events = append(events, glEvent{kind: "add", pos: s.Pos()})
				case "Done":
					events = append(events, glEvent{kind: "done", pos: s.Pos()})
				}
			}
		}
		return true
	})

	// Leak-on-error: a return between wg.Add and the goroutine launch
	// leaves the Add uncompensated, so Wait hangs forever.
	for i, ev := range events {
		if ev.kind != "add" {
			continue
		}
	scan:
		for _, later := range events[i+1:] {
			switch later.kind {
			case "go", "done":
				break scan // launched, or the error path compensates
			case "ret":
				pass.Reportf(later.pos, "return between wg.Add and the goroutine launch leaks the Add — Wait will hang; call Done on this path or move Add after the early returns")
				break scan
			}
		}
	}

	for _, fl := range lits {
		glWalkBody(pass, fl.Body)
	}
}

// judgeGoStmt checks one go statement's termination/join edge.
func judgeGoStmt(pass *Pass, g *ast.GoStmt, closed map[string]bool) {
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		if v := bodyVerdict(pass, fun.Body, closed); v != glOK {
			pass.Reportf(g.Pos(), "goroutine has no provable termination or join edge: %s — leak candidate; add a WaitGroup/ctx.Done/channel-close edge or //lint:ignore goroutinelife with the lifetime rationale", v)
		}
		flagAddInsideBody(pass, fun.Body)
	default:
		callee := staticCallee(pass.Info, g.Call)
		if callee == nil {
			pass.Reportf(g.Pos(), "go statement calls through a function value — termination cannot be proven statically; wrap it in a closure with an explicit join edge")
			return
		}
		fn := funcFullName(callee)
		if fn == "" {
			pass.Reportf(g.Pos(), "go statement launches an unresolvable callee — termination cannot be proven statically")
			return
		}
		pass.ExportFact(g.Pos(), "gosite", fn)
	}
}

// flagAddInsideBody reports wg.Add calls inside a launched goroutine
// body: if the scheduler delays the goroutine past the launcher's Wait,
// the Add is never observed and the wait group is corrupted.
func flagAddInsideBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && isWaitGroupType(pass.TypeOf(sel.X)) {
			pass.Reportf(call.Pos(), "wg.Add inside the launched goroutine races with the launcher's Wait — Add before the go statement")
		}
		return true
	})
}

// bodyVerdict classifies a goroutine body (or a named callee's body):
// glOK when a termination/join edge is provable, otherwise the reason.
func bodyVerdict(pass *Pass, body *ast.BlockStmt, closed map[string]bool) string {
	for _, st := range body.List {
		ds, ok := st.(*ast.DeferStmt)
		if !ok {
			continue
		}
		if sel, ok := ds.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && isWaitGroupType(pass.TypeOf(sel.X)) {
			return glOK // joined via WaitGroup
		}
	}
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if s.Cond == nil && !hasCtxDoneExit(pass, s.Body) {
				reason = "infinite for loop without a ctx.Done select arm that returns or breaks"
			}
		case *ast.RangeStmt:
			t := pass.TypeOf(s.X)
			if t == nil {
				return true
			}
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				if !closed[flattenChain(s.X)] && !hasExitStmt(s.Body) {
					reason = "range over a channel the launcher never closes, with no break/return exit in the loop"
				}
			}
		}
		return true
	})
	if reason != "" {
		return reason
	}
	return glOK
}

// hasCtxDoneExit reports whether body contains a select arm receiving
// from a context.Context's Done() whose arm body returns or breaks.
func hasCtxDoneExit(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		cc, ok := n.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			return true
		}
		recv := commRecvExpr(cc.Comm)
		if recv == nil {
			return true
		}
		call, ok := recv.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" || !isContextType(pass.TypeOf(sel.X)) {
			return true
		}
		for _, st := range cc.Body {
			if stmtExits(st) {
				found = true
				break
			}
		}
		return true
	})
	return found
}

// commRecvExpr extracts the received-from expression of a select comm
// clause statement, or nil.
func commRecvExpr(comm ast.Stmt) ast.Expr {
	var e ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}

// stmtExits reports whether st (or anything inside it, excluding
// nested function literals) returns or breaks.
func stmtExits(st ast.Stmt) bool {
	exits := false
	ast.Inspect(st, func(n ast.Node) bool {
		if exits {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt, *ast.BranchStmt:
			exits = true
		}
		return true
	})
	return exits
}

// hasExitStmt reports whether a loop body contains a break or return.
func hasExitStmt(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if s.Tok == token.BREAK {
				found = true
			}
		}
		return true
	})
	return found
}

// closedChans collects the flattened names of channels that body closes
// (including inside deferred literals — `defer close(ch)` and
// `defer func(){ close(ch) }()` both count as the launcher's close).
func closedChans(pass *Pass, body *ast.BlockStmt) map[string]bool {
	closed := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				if name := flattenChain(call.Args[0]); name != "" {
					closed[name] = true
				}
			}
		}
		return true
	})
	return closed
}

func runGoroutineLifeModule(mp *ModulePass) {
	verdicts := make(map[string]string)
	for _, f := range mp.Facts {
		if f.Name != "body" {
			continue
		}
		fn, v, _ := strings.Cut(f.Value, factSep)
		verdicts[fn] = v
	}
	for _, f := range mp.Facts {
		if f.Name != "gosite" {
			continue
		}
		v, known := verdicts[f.Value]
		switch {
		case !known:
			mp.Reportf(f.Pos, "go %s: callee body is outside the module (stdlib, interface, or unexported elsewhere) — termination cannot be proven; wrap the call in a closure with an explicit join edge", prettyFn(f.Value))
		case v != glOK:
			mp.Reportf(f.Pos, "go %s: %s — leak candidate; add a join edge in the callee or at the launch site", prettyFn(f.Value), v)
		}
	}
}
