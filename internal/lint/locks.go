package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"fexipro/internal/lint/flow"
)

// Locks checks this tree's mutex contracts (DESIGN.md §12.3). Its unit
// pass visits each non-test function declaration, and each function
// literal inside it, exactly once: conc.go pairs the body's
// Lock/Unlock events into lexical held regions, and three rule
// families read that one record.
//
// Hold discipline, reported in the unit pass:
//
//   - every mu.Lock()/mu.RLock() is balanced by an Unlock — a
//     `defer mu.Unlock()` or a positionally later mu.Unlock() in the
//     same body (a cross-function handoff needs a //lint:ignore locks
//     directive citing the protocol);
//   - `defer mu.Lock()` — the classic typo for `defer mu.Unlock()` — is
//     flagged with a suggested fix;
//   - nothing blocks inside a matched region: channel sends, receives
//     and selects without default, time.Sleep, slog logging (a Handler
//     may write to a blocked pipe), Search*/TopK*Context calls (a whole
//     scan under the lock extends every queued request by a full scan),
//     calls through function-typed values (unknown callee, unbounded
//     hold time), and calls to a same-unit helper whose body reaches
//     one of these (a BLOCKER, reported with the chain of calls). Mutex
//     operations are not blocking in callee summaries — nesting is the
//     lock-order rule's job.
//
// Lock order, joined in the module phase: every acquisition made while
// another mutex is held — nested in one body, or through a static call
// chain resolved across packages — is an edge A → B between canonical
// pkg.Type.field names. Each edge must be declared with
// `//fex:lockorder A < B`, none may contradict the declared hierarchy,
// a lock re-acquired while held self-deadlocks, and a cycle in the
// observed∪declared graph is a deadlock candidate reported with its
// acquisition chain.
//
// Guarded fields, joined in the module phase: a field annotated
// `//fex:guard mu` may only be read while its sibling mutex mu is held
// and written while mu is write-held, except through the receiver of a
// *Locked method (the caller holds the lock) or on an object still
// local to its constructor. A field of a mutex-bearing struct whose
// every write (≥2) holds exactly one sibling mutex gets the annotation
// suggested as a fix.
//
// An unmatched Lock makes a region to the body end for the order and
// guard rules; the blocking rule reads matched regions only. Test files
// are skipped: race harnesses take and block on locks deliberately.
var Locks = &Analyzer{
	Name:      "locks",
	Doc:       "mutex discipline: balanced Lock/Unlock, no blocking while held, a declared acyclic lock order, //fex:guard field contracts",
	Run:       runLocksUnit,
	RunModule: runLocksModule,
}

const (
	lockOrderDirective = "//fex:lockorder"
	guardDirective     = "//fex:guard"
)

func runLocksUnit(pass *Pass) {
	for _, file := range nonTestFiles(pass.Fset, pass.Files) {
		exportLockOrderDecls(pass, file)
		for _, d := range file.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					exportGuardFields(pass, spec.(*ast.TypeSpec))
				}
			}
		}
	}
	bodies := lockBodies(pass)
	blockers := blockerFixpoint(pass, bodies)
	for _, b := range bodies {
		checkHold(pass, blockers, b)
		exportOrderFacts(pass, b)
		exportGuardAccesses(pass, b)
	}
}

func runLocksModule(mp *ModulePass) {
	checkLockOrder(mp)
	checkGuards(mp)
}

// ---- hold discipline ----

// blockerFixpoint computes which declared functions of the unit
// (transitively, through same-unit static calls) perform a blocking
// operation, mapping each to the call chain that reaches it (e.g.
// "relay → time.Sleep").
func blockerFixpoint(pass *Pass, bodies []*lockBody) map[types.Object]string {
	blockers := make(map[types.Object]string)
	for changed := true; changed; {
		changed = false
		for _, b := range bodies {
			if b.fn == nil || blockers[b.fn] != "" {
				continue
			}
			reason := ""
			ast.Inspect(b.body, func(n ast.Node) bool {
				if reason != "" {
					return false
				}
				if _, ok := n.(*ast.FuncLit); ok {
					return false // a body of its own
				}
				r, via := blockingOp(pass, blockers, n)
				if via != "" {
					r = via + " → " + r
				}
				reason = r
				_, isSelect := n.(*ast.SelectStmt)
				return !isSelect // comm clauses were judged as a unit
			})
			if reason != "" {
				blockers[b.fn] = reason
				changed = true
			}
		}
	}
	return blockers
}

// blockingOp classifies one node: a channel send, a channel receive, a
// select without default, a blocking call (blockingCallMessage), or a
// call to a known blocker. It returns the reason — for a blocker, the
// chain below it, with the blocker's name as via — or "" when n does
// not block.
func blockingOp(pass *Pass, blockers map[types.Object]string, n ast.Node) (reason, via string) {
	switch s := n.(type) {
	case *ast.SendStmt:
		return "channel send", ""
	case *ast.UnaryExpr:
		if s.Op == token.ARROW {
			return "channel receive", ""
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			return "blocking select", ""
		}
	case *ast.CallExpr:
		if msg := blockingCallMessage(pass, s); msg != "" {
			return msg, ""
		}
		if callee := flow.Callee(pass.Info, s); callee != nil && blockers[callee] != "" {
			return blockers[callee], callee.Name()
		}
	}
	return "", ""
}

// moveHint ends the report of a blocking call under a lock.
const moveHint = " — move it after the unlock or document why with //lint:ignore locks"

// blockHint ends the report of a blocking channel operation under a
// lock; every other reason ends with moveHint.
var blockHint = map[string]string{
	"channel send":    " — a full channel stalls every caller queued on the mutex",
	"channel receive": " — an empty channel stalls every caller queued on the mutex",
	"blocking select": "",
}

// checkHold reports one body's defer-Lock typos, its Locks with no
// release, and the blocking operations inside its matched regions.
func checkHold(pass *Pass, blockers map[types.Object]string, b *lockBody) {
	for _, ev := range b.deferTypos {
		want := unlockName(ev.name)
		off := pass.Offset(ev.selPos)
		pass.ReportFix(ev.pos, SuggestedFix{
			Message: "replace defer " + ev.path + "." + ev.name + " with defer " + ev.path + "." + want,
			Edits: []TextEdit{{
				File:    pass.Fset.Position(ev.pos).Filename,
				Offset:  off,
				End:     off + len(ev.name),
				NewText: want,
			}},
		}, "defer %s.%s() locks at function exit — almost certainly a typo for defer %s.%s()",
			ev.path, ev.name, ev.path, want)
	}
	for _, r := range b.regions {
		if !r.open {
			flagBlockingInRegion(pass, blockers, b.body, r)
			continue
		}
		lock := "Lock"
		if r.read {
			lock = "RLock"
		}
		pass.Reportf(r.pos,
			"%s.%s() has no matching %s in this function — if the lock is handed off across functions, document the protocol with a //lint:ignore locks directive",
			r.path, lock, unlockName(lock))
	}
}

// flagBlockingInRegion reports blocking operations between the lock and
// its release.
func flagBlockingInRegion(pass *Pass, blockers map[types.Object]string, body *ast.BlockStmt, r lockRegion) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if !r.covers(n.Pos()) {
			// Outside the held span: descend only into a node that
			// straddles it.
			return n.End() > r.pos && n.Pos() < r.end
		}
		reason, via := blockingOp(pass, blockers, n)
		switch {
		case via != "":
			pass.Reportf(n.Pos(), "call to %s while holding %s reaches a blocking operation (%s → %s)"+moveHint, via, r.path, via, reason)
		case reason != "":
			hint, ok := blockHint[reason]
			if !ok {
				hint = moveHint
			}
			pass.Reportf(n.Pos(), "%s while holding %s%s", reason, r.path, hint)
		}
		_, isSelect := n.(*ast.SelectStmt)
		return !isSelect // comm clauses were judged as a unit
	})
}

// selectHasDefault reports whether a select has a default clause (a
// non-blocking poll).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCallMessage classifies a call as blocking-while-locked, or
// returns "".
func blockingCallMessage(pass *Pass, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		// slog logging: handlers may write to a blocked sink.
		if isSlogValue(pass, fun.X) {
			switch name {
			case "Info", "Warn", "Error", "Debug", "Log", "InfoContext", "WarnContext", "ErrorContext", "DebugContext", "LogAttrs":
				return "slog call (" + name + ")"
			}
		}
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == "time" && name == "Sleep" {
			return "time.Sleep"
		}
		// A whole scan under the index mutex.
		if isSearchEntryName(name) {
			return name + " call (a full scan)"
		}
	case *ast.Ident:
		// Calls through function-typed values: unknown, unbounded callee.
		obj := pass.Info.Uses[fun]
		if obj == nil {
			return ""
		}
		if _, isVar := obj.(*types.Var); isVar {
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				return "call through function value " + fun.Name + " (unbounded hold time)"
			}
		}
	}
	return ""
}

// isSearchEntryName matches the context-searcher entry points whose
// calls are whole scans.
func isSearchEntryName(name string) bool {
	switch name {
	case "SearchContext", "SearchAboveContext", "TopKAllContext", "TopKJoinContext", "BatchTopKContext":
		return true
	}
	return false
}

// isSlogValue reports whether e is a *slog.Logger or the slog package.
func isSlogValue(pass *Pass, e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok {
		if pkg, ok := pass.Info.Uses[id].(*types.PkgName); ok {
			return pkg.Imported().Path() == "log/slog"
		}
	}
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "log/slog" && named.Obj().Name() == "Logger"
}

// ---- lock order ----

// exportLockOrderDecls parses `//fex:lockorder A < B` annotations into
// "declare" facts and flags malformed directives.
func exportLockOrderDecls(pass *Pass, file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if after, ok := strings.CutPrefix(text, "/*"); ok {
				text = "//" + strings.TrimSpace(strings.TrimSuffix(after, "*/"))
			}
			rest, ok := strings.CutPrefix(text, lockOrderDirective)
			if !ok {
				continue
			}
			rest, _, _ = strings.Cut(rest, "//") // trailing rationale comment
			a, b, found := strings.Cut(rest, "<")
			a, b = strings.TrimSpace(a), strings.TrimSpace(b)
			if !found || a == "" || b == "" || strings.ContainsAny(a+b, " <") {
				pass.Reportf(c.Pos(), "malformed //fex:lockorder directive %q — want //fex:lockorder pkg.Type.mu < pkg.Type.mu", strings.TrimSpace(c.Text))
				continue
			}
			pass.ExportFact(c.Pos(), "declare", a+factSep+b)
		}
	}
}

// exportOrderFacts exports one body's acquisition facts: "acq" (ctx
// acquires lock), "edge" (nested acquisition under a held lock), "call"
// (static call made while a lock is held), and — for declarations only,
// as calls inside a literal run on its schedule — "fcall" (ctx
// statically calls callee), which lets the module phase propagate
// acquisitions up the call graph.
func exportOrderFacts(pass *Pass, b *lockBody) {
	names := make([]string, len(b.regions))
	for i, r := range b.regions {
		names[i] = globalLockName(pass, r.expr)
		if names[i] != "" {
			pass.ExportFact(r.pos, "acq", b.ctx+factSep+names[i])
		}
	}
	for i, outer := range b.regions {
		if names[i] == "" {
			continue
		}
		for j, inner := range b.regions {
			if i == j || names[j] == "" || !outer.covers(inner.pos) {
				continue
			}
			pass.ExportFact(inner.pos, "edge", names[i]+factSep+names[j]+factSep+b.ctx)
		}
	}

	seen := make(map[string]bool)
	ast.Inspect(b.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := flow.Callee(pass.Info, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() == "sync" {
			return true
		}
		cname := funcFullName(callee)
		if b.fn != nil {
			if v := b.ctx + factSep + cname; !seen["f"+v] {
				seen["f"+v] = true
				pass.ExportFact(call.Pos(), "fcall", v)
			}
		}
		for i, r := range b.regions {
			if names[i] == "" || !r.covers(call.Pos()) {
				continue
			}
			if v := names[i] + factSep + cname + factSep + b.ctx; !seen["c"+v] {
				seen["c"+v] = true
				pass.ExportFact(call.Pos(), "call", v)
			}
		}
		return true
	})
}

// loEdge is one observed lock-order edge with its provenance.
type loEdge struct {
	from, to string
	pos      token.Position // representative exporting fact
	via      string
}

// checkLockOrder joins the acquisition facts into the lock-order graph
// and reports undocumented, contradicting, self-deadlocking and cyclic
// acquisitions, plus stale //fex:lockorder declarations.
func checkLockOrder(mp *ModulePass) {
	direct := make(map[string]map[string]bool) // fn → locks acquired directly
	calls := make(map[string][]string)         // fn → static callees
	callSeen := make(map[string]bool)
	var heldCalls []Fact // "call" facts, in deterministic order
	var declares []Fact
	edges := make(map[[2]string]loEdge)
	addEdge := func(e loEdge) {
		k := [2]string{e.from, e.to}
		if _, ok := edges[k]; !ok {
			edges[k] = e
		}
	}

	for _, f := range mp.Facts {
		parts := strings.Split(f.Value, factSep)
		switch f.Name {
		case "acq":
			if direct[parts[0]] == nil {
				direct[parts[0]] = make(map[string]bool)
			}
			direct[parts[0]][parts[1]] = true
		case "edge":
			addEdge(loEdge{from: parts[0], to: parts[1], pos: f.Pos, via: prettyFn(parts[2])})
		case "call":
			heldCalls = append(heldCalls, f)
		case "fcall":
			if !callSeen[f.Value] {
				callSeen[f.Value] = true
				calls[parts[0]] = append(calls[parts[0]], parts[1])
			}
		case "declare":
			declares = append(declares, f)
		}
	}

	// Fixpoint: transAcq[fn] = locks fn acquires directly or through any
	// chain of static calls.
	transAcq := make(map[string]map[string]bool)
	fns := make(map[string]bool)
	for fn := range direct {
		fns[fn] = true
	}
	for fn := range calls {
		fns[fn] = true
	}
	order := sortedKeys(fns)
	for _, fn := range order {
		transAcq[fn] = make(map[string]bool)
		for l := range direct[fn] {
			transAcq[fn][l] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			for _, callee := range calls[fn] {
				for l := range transAcq[callee] {
					if !transAcq[fn][l] {
						transAcq[fn][l] = true
						changed = true
					}
				}
			}
		}
	}

	// Expand held calls into edges: a call under lock A reaching a
	// function that (transitively) acquires B is an A → B edge, named
	// by the shortest call chain to an acquirer.
	for _, f := range heldCalls {
		parts := strings.Split(f.Value, factSep)
		held, callee, ctx := parts[0], parts[1], parts[2]
		for _, lock := range sortedKeys(transAcq[callee]) {
			chain := []string{callee}
			if !direct[callee][lock] {
				chain = bfsPath(calls, callee, func(fn string) bool { return direct[fn][lock] })
			}
			via := prettyFn(ctx)
			for _, fn := range chain {
				via += " → " + prettyFn(fn)
			}
			addEdge(loEdge{from: held, to: lock, pos: f.Pos, via: via})
		}
	}

	knownLocks := make(map[string]bool)
	for _, fn := range order {
		for l := range direct[fn] {
			knownLocks[l] = true
		}
	}

	// Declared hierarchy, with transitive reachability for the
	// documented / contradiction checks.
	declared := make(map[[2]string]Fact)
	declAdj := make(map[string][]string)
	for _, f := range declares {
		a, b, _ := strings.Cut(f.Value, factSep)
		if a == b {
			mp.Reportf(f.Pos, "//fex:lockorder declares %s < %s — a lock cannot precede itself", a, b)
			continue
		}
		for _, l := range []string{a, b} {
			if !knownLocks[l] {
				mp.Reportf(f.Pos, "//fex:lockorder references %s, which is never acquired anywhere in the module — stale or misspelled declaration", l)
			}
		}
		if _, ok := declared[[2]string{a, b}]; !ok {
			declared[[2]string{a, b}] = f
			declAdj[a] = append(declAdj[a], b)
		}
	}

	var edgeKeys [][2]string
	for k := range edges {
		edgeKeys = append(edgeKeys, k)
	}
	sort.Slice(edgeKeys, func(i, j int) bool {
		if edgeKeys[i][0] != edgeKeys[j][0] {
			return edgeKeys[i][0] < edgeKeys[j][0]
		}
		return edgeKeys[i][1] < edgeKeys[j][1]
	})

	// Classify edges; contradictions and self-loops leave the cycle
	// graph so each defect is reported exactly once.
	adj := make(map[string][]string)
	edgeAt := make(map[[2]string]loEdge)
	var undocumented [][2]string
	for _, k := range edgeKeys {
		e := edges[k]
		switch {
		case e.from == e.to:
			mp.Reportf(e.pos, "%s re-acquired while already held (%s) — sync mutexes are not reentrant; this self-deadlocks", e.from, e.via)
		case reaches(declAdj, e.to, e.from):
			mp.Reportf(e.pos, "%s acquired while holding %s (%s) contradicts the declared hierarchy //fex:lockorder %s < %s", e.to, e.from, e.via, e.to, e.from)
		default:
			adj[e.from] = append(adj[e.from], e.to)
			edgeAt[k] = e
			if !reaches(declAdj, e.from, e.to) {
				undocumented = append(undocumented, k)
			}
		}
	}
	for _, a := range sortedKeys(declAdj) {
		for _, b := range declAdj[a] {
			if _, ok := edgeAt[[2]string{a, b}]; !ok {
				adj[a] = append(adj[a], b)
			}
		}
	}

	// Cycles: a lock is on one when it reaches itself, and two locks
	// share one exactly when each reaches the other. Each such group is
	// reported once, as the shortest cycle through its lexically first
	// lock, and owns its undocumented edges.
	locks := sortedKeys(adj)
	for i, l := range locks {
		cycle := bfsPath(adj, l, func(m string) bool { return m == l })
		if cycle == nil || slices.ContainsFunc(locks[:i], func(m string) bool { return reaches(adj, l, m) && reaches(adj, m, l) }) {
			continue
		}
		reportLockCycle(mp, cycle, edgeAt, declared)
	}
	for _, k := range undocumented {
		if reaches(adj, k[1], k[0]) {
			continue // the cycle diagnostic owns this edge
		}
		e := edgeAt[k]
		mp.Reportf(e.pos, "%s acquired while holding %s (%s) — undocumented lock order; declare `//fex:lockorder %s < %s` if this hierarchy is intentional", e.to, e.from, e.via, e.from, e.to)
	}
}

// reportLockCycle reports one deadlock-candidate cycle, at its first
// edge, with each edge's source position and call chain in the message.
func reportLockCycle(mp *ModulePass, cycle []string, edgeAt map[[2]string]loEdge, declared map[[2]string]Fact) {
	details := make([]string, len(cycle)-1)
	var at token.Position
	for i := range details {
		k := [2]string{cycle[i], cycle[i+1]}
		pos := declared[k].Pos
		if e, ok := edgeAt[k]; ok {
			pos = e.pos
			details[i] = fmt.Sprintf("%s → %s at %s:%d via %s", e.from, e.to, filepath.Base(pos.Filename), pos.Line, e.via)
		} else {
			details[i] = fmt.Sprintf("%s → %s declared at %s:%d", k[0], k[1], filepath.Base(pos.Filename), pos.Line)
		}
		if i == 0 {
			at = pos
		}
	}
	mp.Reportf(at, "lock-order cycle (deadlock candidate): %s [%s] — goroutines taking these locks in opposite orders can deadlock each other",
		strings.Join(cycle, " → "), strings.Join(details, "; "))
}

// bfsPath returns the shortest path from `from` along adj, of at least
// one edge, to the first node that done accepts — [from, …, node] — or
// nil when no such node is reachable.
func bfsPath(adj map[string][]string, from string, done func(string) bool) []string {
	type step struct {
		node string
		prev int
	}
	steps := []step{{node: from, prev: -1}}
	seen := map[string]bool{from: true}
	for i := 0; i < len(steps); i++ {
		for _, next := range adj[steps[i].node] {
			if done(next) {
				path := []string{next}
				for j := i; j >= 0; j = steps[j].prev {
					path = append(path, steps[j].node)
				}
				slices.Reverse(path)
				return path
			}
			if !seen[next] {
				seen[next] = true
				steps = append(steps, step{node: next, prev: i})
			}
		}
	}
	return nil
}

// reaches reports whether b is reachable from a by at least one edge.
func reaches(adj map[string][]string, a, b string) bool {
	return bfsPath(adj, a, func(n string) bool { return n == b }) != nil
}

// prettyFn compacts a types.Func.FullName for messages:
// "(*fexipro/internal/snap.WAL).Append" → "snap.WAL.Append",
// "fexipro/internal/load.Run" → "load.Run".
func prettyFn(full string) string {
	if strings.HasPrefix(full, "(") {
		end := strings.Index(full, ")")
		if end < 0 {
			return full
		}
		recv := strings.TrimPrefix(full[1:end], "*")
		if i := strings.LastIndex(recv, "/"); i >= 0 {
			recv = recv[i+1:]
		}
		return recv + "." + strings.TrimPrefix(full[end+1:], ".")
	}
	if i := strings.LastIndex(full, "/"); i >= 0 {
		return full[i+1:]
	}
	return full
}

// sortedKeys returns the keys of a string-keyed map in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- guarded fields ----

// exportGuardFields validates //fex:guard annotations on one struct
// declaration and exports a "field" fact for every guardable field
// (structs with at least one mutex sibling), carrying the annotation
// state and the insertion point for a suggested one.
func exportGuardFields(pass *Pass, ts *ast.TypeSpec) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	var mutexes []string
	for _, f := range st.Fields.List {
		if isMutexType(pass.TypeOf(f.Type)) {
			for _, n := range f.Names {
				mutexes = append(mutexes, n.Name)
			}
		}
	}
	for _, f := range st.Fields.List {
		guard := parseGuardDirective(f)
		isMutex := isMutexType(pass.TypeOf(f.Type))
		if guard != "" {
			switch {
			case isMutex:
				pass.Reportf(f.Pos(), "//fex:guard on %s.%s, which is itself a mutex — guard data fields, not locks", ts.Name.Name, fieldNames(f))
				continue
			case !slices.Contains(mutexes, guard):
				pass.Reportf(f.Pos(), "//fex:guard %s on %s.%s names no sync.Mutex/RWMutex sibling field of %s", guard, ts.Name.Name, fieldNames(f), ts.Name.Name)
				continue
			}
		}
		if len(mutexes) == 0 || isMutex || len(f.Names) == 0 {
			continue // embedded fields and mutex-free structs are out of scope
		}
		p := pass.Fset.Position(f.Pos())
		lineStart := p.Offset - (p.Column - 1)
		if guard == "" {
			guard = "-"
		}
		for _, n := range f.Names {
			key := pass.Pkg.Name() + "." + ts.Name.Name + "." + n.Name
			pass.ExportFact(n.Pos(), "field", strings.Join([]string{
				key, strings.Join(mutexes, ","), guard,
				strconv.Itoa(lineStart), strconv.Itoa(p.Column - 1),
			}, factSep))
		}
	}
}

// parseGuardDirective returns the guard field named by a //fex:guard
// comment attached to f (doc line or trailing comment), or "".
func parseGuardDirective(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), guardDirective); ok {
				rest, _, _ = strings.Cut(rest, "//")
				return strings.TrimSpace(rest)
			}
		}
	}
	return ""
}

func fieldNames(f *ast.Field) string {
	names := make([]string, len(f.Names))
	for i, n := range f.Names {
		names[i] = n.Name
	}
	return strings.Join(names, ",")
}

// exportGuardAccesses records every access to a field of a
// mutex-bearing struct in one body, together with the held state of
// each mutex sibling at the access point, as "access" facts for the
// module join.
func exportGuardAccesses(pass *Pass, b *lockBody) {
	local := locallyConstructed(pass, b.body)

	writes := make(map[ast.Expr]bool)
	markWrite := func(e ast.Expr) { writes[ast.Unparen(e)] = true }
	ast.Inspect(b.body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(s.X)
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				markWrite(s.X)
			}
		case *ast.RangeStmt:
			if s.Key != nil {
				markWrite(s.Key)
			}
			if s.Value != nil {
				markWrite(s.Value)
			}
		}
		return true
	})

	ast.Inspect(b.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok || isMutexType(field.Type()) {
			return true
		}
		named := namedRecv(selection.Recv())
		if named == nil || named.Obj().Pkg() == nil {
			return true
		}
		strct, ok := named.Underlying().(*types.Struct)
		if !ok {
			return true
		}
		var mutexes []string
		for i := 0; i < strct.NumFields(); i++ {
			if f := strct.Field(i); isMutexType(f.Type()) {
				mutexes = append(mutexes, f.Name())
			}
		}
		if len(mutexes) == 0 {
			return true
		}
		key := named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + field.Name()
		kind := "r"
		if writes[sel] {
			kind = "w"
		}
		root := rootObject(pass, sel.X)
		if root != nil && (root == b.lockedRecv || local[root]) {
			pass.ExportFact(sel.Sel.Pos(), "access", strings.Join([]string{key, "x" + kind, "-", b.ctx}, factSep))
			return true
		}
		base := flattenChain(sel.X)
		statuses := make([]string, len(mutexes))
		for i, m := range mutexes {
			status := "none"
			if base != "" {
				target := base + "." + m
				for _, r := range b.regions {
					if r.path != target || !r.covers(sel.Pos()) {
						continue
					}
					if !r.read {
						status = "w"
						break
					}
					status = "r"
				}
			}
			statuses[i] = m + ":" + status
		}
		pass.ExportFact(sel.Sel.Pos(), "access", strings.Join([]string{key, kind, strings.Join(statuses, ","), b.ctx}, factSep))
		return true
	})
}

// locallyConstructed collects objects assigned from a composite literal
// or new() in this body: they are not shared yet, so their guarded
// fields may be initialized without the lock.
func locallyConstructed(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	local := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				rhs = ast.Unparen(u.X)
			}
			fresh := false
			switch r := rhs.(type) {
			case *ast.CompositeLit:
				fresh = true
			case *ast.CallExpr:
				if fn, ok := r.Fun.(*ast.Ident); ok && fn.Name == "new" {
					if _, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); isBuiltin {
						fresh = true
					}
				}
			}
			if fresh {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					local[obj] = true
				}
			}
		}
		return true
	})
	return local
}

// rootObject resolves the base identifier of a selector chain to its
// object, or nil.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.Info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// guardField is the module-phase view of one guardable field.
type guardField struct {
	key       string
	siblings  []string
	guard     string // "-" when unannotated
	pos       token.Position
	lineStart int
	indent    int
}

// checkGuards joins the field and access facts: annotated fields are
// enforced, disciplined unannotated ones get the annotation suggested.
func checkGuards(mp *ModulePass) {
	fields := make(map[string]*guardField)
	type guardAccess struct {
		kind   string
		status map[string]string // sibling → none|r|w
		pos    token.Position
	}
	accesses := make(map[string][]guardAccess)

	for _, f := range mp.Facts {
		parts := strings.Split(f.Value, factSep)
		switch f.Name {
		case "field":
			lineStart, _ := strconv.Atoi(parts[3])
			indent, _ := strconv.Atoi(parts[4])
			if _, dup := fields[parts[0]]; !dup {
				fields[parts[0]] = &guardField{
					key: parts[0], siblings: strings.Split(parts[1], ","),
					guard: parts[2], pos: f.Pos, lineStart: lineStart, indent: indent,
				}
			}
		case "access":
			ga := guardAccess{kind: parts[1], pos: f.Pos, status: make(map[string]string)}
			if parts[2] != "-" {
				for _, ent := range strings.Split(parts[2], ",") {
					m, s, _ := strings.Cut(ent, ":")
					ga.status[m] = s
				}
			}
			accesses[parts[0]] = append(accesses[parts[0]], ga)
		}
	}

	for _, key := range sortedKeys(fields) {
		fld := fields[key]
		prefix := key[:strings.LastIndex(key, ".")+1] // "pkg.Type."
		if fld.guard != "-" {
			lockName := prefix + fld.guard
			for _, ga := range accesses[key] {
				switch ga.kind {
				case "w":
					switch ga.status[fld.guard] {
					case "w":
					case "r":
						mp.Reportf(ga.pos, "write to %s under RLock of %s — guarded writes need the write lock", key, lockName)
					default:
						mp.Reportf(ga.pos, "write to %s without holding %s (//fex:guard %s) — acquire the lock or document the exception with //lint:ignore locks", key, lockName, fld.guard)
					}
				case "r":
					if s := ga.status[fld.guard]; s != "w" && s != "r" {
						mp.Reportf(ga.pos, "read of %s without holding %s (//fex:guard %s) — acquire the lock or document the exception with //lint:ignore locks", key, lockName, fld.guard)
					}
				}
			}
			continue
		}

		// Inference: every write held exactly one sibling mutex.
		totalW := 0
		heldW := make(map[string]int)
		for _, ga := range accesses[key] {
			if ga.kind != "w" {
				continue
			}
			totalW++
			for _, m := range fld.siblings {
				if ga.status[m] == "w" {
					heldW[m]++
				}
			}
		}
		if totalW < 2 {
			continue
		}
		var candidates []string
		for _, m := range fld.siblings {
			if heldW[m] == totalW {
				candidates = append(candidates, m)
			}
		}
		if len(candidates) != 1 {
			continue
		}
		guard := candidates[0]
		mp.ReportFix(fld.pos, SuggestedFix{
			Message: fmt.Sprintf("annotate %s with //fex:guard %s", key, guard),
			Edits: []TextEdit{{
				File:    fld.pos.Filename,
				Offset:  fld.lineStart,
				End:     fld.lineStart,
				NewText: strings.Repeat("\t", fld.indent) + guardDirective + " " + guard + "\n",
			}},
		}, "field %s is always written (%d×) under %s and never without it — annotate `//fex:guard %s` so the contract is enforced", key, totalW, prefix+guard, guard)
	}
}
