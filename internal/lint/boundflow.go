package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"fexipro/internal/lint/flow"
)

// BoundFlow is the one analysis of FEXIPRO's pruning contract: the
// method is exact only because every prune is strict — an upper bound
// b >= s (Theorems 1–4) may discard an item only when b < t. Over each
// function's CFG (internal/lint/flow) values carry two labels:
// BOUND-derived, from an assignment or declaration annotated
// //fex:bound (on its line or the line above) or a call to a function
// so annotated, in any package ("bound-fn" facts); and
// THRESHOLD-derived, from SharedThreshold.Floor/Load or
// Collector.Threshold in the non-test functions that same-unit calls
// reach from a kernel-shaped Scan (isKernelScanDecl). Labels flow
// through locals, fields (weakly) and arithmetic — a bound survives +
// and * on either side and - and / on the left only, so `t / lenBound`
// is a threshold, not a bound; a threshold survives all four — and
// into a same-unit callee's parameters from the arguments at its call
// sites (flow.TaintSpec.Entry, iterated to a fixpoint). Reassigning a
// variable from an unlabelled expression (the exact recompute) drops
// its label. The rules:
//
//  1. A comparison with a labelled side keeps the equality case of the
//     true score: a bound on the left or a threshold on the right admits
//     only `<` (strict prune) and `>=` (tie-keeping keep), the mirror
//     image only `>` and `<=`, and `==`/`!=` nothing; operators with a
//     conservative rewrite carry it as a fix. A comparison over a
//     NEGATED labelled value is reported without one: `-b > -t` is the
//     strict prune b < t, and "fixing" it to `>=` would prune ties.
//  2. In a function that can count (a Stats receiver, receiver field or
//     parameter), a branch that runs when a prune holds — the body of
//     `if b < t`, the else of `if b >= t` or `if !(b < t)` — and leaves
//     the loop or function increments a PrunedBy* counter, or the
//     Tables 3/7 telemetry is wrong. Keep-side exits owe nothing.
//  3. A bound returned from a function not annotated //fex:bound leaks
//     into callers that will take it for an exact score.
var BoundFlow = &Analyzer{
	Name:      "boundflow",
	Doc:       "bound- and threshold-derived values meet only strictly-conservative comparisons, and every prune exit is counted; interprocedural via call graph and facts",
	Run:       runBoundFlow,
	RunModule: runBoundFlowModule,
}

const factBoundFn = "bound-fn"

// runBoundFlow only exports facts: every function declaration annotated
// //fex:bound becomes a "bound-fn" fact keyed by its qualified name.
// All checking happens in the module phase, where the full cross-unit
// fact set is available, so findings never depend on which unit a
// caller lives in.
func runBoundFlow(pass *Pass) {
	for _, file := range pass.Files {
		lines := boundDirectiveLines(pass.Fset, file)
		if len(lines) == 0 {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !annotatedAt(lines, pass.Fset.Position(fd.Pos()).Line) {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				pass.ExportFact(fd.Pos(), factBoundFn, obj.FullName())
			}
		}
	}
}

func runBoundFlowModule(mp *ModulePass) {
	boundFns := make(map[string]bool)
	for _, f := range mp.Facts {
		if f.Name == factBoundFn {
			boundFns[f.Value] = true
		}
	}
	for _, u := range mp.Units {
		checkBoundFlowUnit(mp, u, boundFns)
	}
}

// boundDirectiveLines returns the set of lines in file carrying a
// //fex:bound directive.
func boundDirectiveLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == "fex:bound" || strings.HasPrefix(text, "fex:bound ") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// annotatedAt reports whether a directive sits on line or the line
// above — the same placement rule as //fex:hot and //lint:ignore.
func annotatedAt(lines map[int]bool, line int) bool {
	return lines[line] || lines[line-1]
}

// The two labels, indexing boundFunc.res and boundUnit.entry.
const (
	labelBound = iota
	labelThreshold
)

// boundUnit is boundflow over one unit.
type boundUnit struct {
	mp       *ModulePass
	u        *Unit
	boundFns map[string]bool
	cg       *flow.CallGraph
	lines    map[string]map[int]bool            // //fex:bound lines, by file name
	kernel   map[types.Object]bool              // where threshold labels apply
	entry    [2]map[types.Object][]types.Object // per label: the parameters call sites label
	funcs    map[types.Object]*boundFunc
}

// boundFunc is one function's solution, one taint result per label (nil
// where the label does not apply).
type boundFunc struct {
	g   *flow.Graph
	res [2]*flow.TaintResult
}

func checkBoundFlowUnit(mp *ModulePass, u *Unit, boundFns map[string]bool) {
	cg, order := callGraph(u.Files, u.Info)
	b := &boundUnit{
		mp: mp, u: u, boundFns: boundFns, cg: cg,
		lines: make(map[string]map[int]bool),
		entry: [2]map[types.Object][]types.Object{{}, {}},
		funcs: make(map[types.Object]*boundFunc),
	}
	for _, file := range u.Files {
		b.lines[u.Fset.Position(file.Pos()).Filename] = boundDirectiveLines(u.Fset, file)
	}
	var scans []types.Object
	dirty := make(map[types.Object]bool)
	for _, obj := range order {
		fd := cg.Decls[obj]
		if isKernelScanDecl(u.Info, fd) && !strings.HasSuffix(u.Fset.Position(fd.Pos()).Filename, "_test.go") {
			scans = append(scans, obj)
		}
		dirty[obj] = true
	}
	b.kernel = cg.Reachable(scans)

	// Solve to a fixpoint of the parameter labels: a function is solved
	// again whenever a call site labels another of its parameters.
	for len(dirty) > 0 {
		for _, obj := range order {
			if dirty[obj] {
				delete(dirty, obj)
				for _, callee := range b.solve(obj) {
					dirty[callee] = true
				}
			}
		}
	}
	for _, obj := range order {
		if f := b.funcs[obj]; f != nil {
			b.check(obj, f)
		}
	}
}

// solve (re)computes obj's labels and returns the same-unit callees
// whose parameter labels grew.
func (b *boundUnit) solve(obj types.Object) []types.Object {
	fd := b.cg.Decls[obj]
	if !b.kernel[obj] && len(b.entry[labelBound][obj]) == 0 && !b.hasBoundSource(fd) {
		return nil
	}
	info := b.u.Info
	f := &boundFunc{g: flow.New(fd.Body)}
	f.res[labelBound] = flow.Solve(f.g, flow.TaintSpec{
		Info:       info,
		Source:     func(e ast.Expr) bool { return isBoundCall(info, b.boundFns, e) },
		SourceStmt: func(stmt ast.Node) bool { return b.annotated(stmt.Pos()) },
		Binary:     boundBinaryRule,
		Entry:      b.entry[labelBound][obj],
	})
	if b.kernel[obj] {
		f.res[labelThreshold] = flow.Solve(f.g, flow.TaintSpec{
			Info:   info,
			Source: func(e ast.Expr) bool { return isThresholdCall(info, e) },
			Binary: thresholdBinaryRule,
			Entry:  b.entry[labelThreshold][obj],
		})
	}
	b.funcs[obj] = f

	var grown []types.Object
	inspectFlow(f.g, func(node, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := flow.Callee(info, call)
		if b.cg.Decls[callee] == nil {
			return
		}
		sig := callee.Type().(*types.Signature)
		for i, arg := range call.Args {
			p := paramAt(sig, i)
			for l, res := range f.res {
				if p != nil && res != nil && res.Tainted(node, arg) && !slices.Contains(b.entry[l][callee], p) {
					b.entry[l][callee] = append(b.entry[l][callee], p)
					grown = append(grown, callee)
				}
			}
		}
	})
	return grown
}

// annotated reports whether a //fex:bound directive sits on pos's line or
// the line above.
func (b *boundUnit) annotated(pos token.Pos) bool {
	p := b.u.Fset.Position(pos)
	return annotatedAt(b.lines[p.Filename], p.Line)
}

// hasBoundSource reports whether fd holds a bound source — an annotated
// line within its body, or a call to a bound function — and so is worth
// solving without labelled parameters.
func (b *boundUnit) hasBoundSource(fd *ast.FuncDecl) bool {
	start, end := b.u.Fset.Position(fd.Body.Pos()), b.u.Fset.Position(fd.Body.End())
	for line := range b.lines[start.Filename] {
		if line >= start.Line && line <= end.Line {
			return true
		}
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && isBoundCall(b.u.Info, b.boundFns, e) {
			found = true
		}
		return !found
	})
	return found
}

// paramAt is the parameter receiving argument i of a call to sig.
func paramAt(sig *types.Signature, i int) types.Object {
	n := sig.Params().Len()
	if sig.Variadic() {
		i = min(i, n-1)
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i)
}

// inspectFlow calls f for every syntax node under g's CFG nodes, with
// the CFG node holding it. Function literals are skipped: they run on
// their own schedule.
func inspectFlow(g *flow.Graph, f func(node, n ast.Node)) {
	for _, blk := range g.Blocks {
		for _, node := range blk.Nodes {
			// Unwrap the flow package's synthetic node kinds; go/ast.Inspect
			// panics on non-standard nodes.
			root := node
			switch n := node.(type) {
			case flow.Cond:
				root = n.Expr
			case *flow.RangeAssign:
				root = n.X
			}
			ast.Inspect(root, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok || n == nil {
					return false
				}
				f(node, n)
				return true
			})
		}
	}
}

// isBoundCall reports whether e is a call whose static callee is a
// //fex:bound function (same unit or any other — the fact set is
// module-wide).
func isBoundCall(info *types.Info, boundFns map[string]bool, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := flow.Callee(info, call).(*types.Func)
	return ok && boundFns[fn.FullName()]
}

// thresholdReads maps the methods that read the pruning threshold to
// their receivers' type names.
var thresholdReads = map[string]string{"Floor": "SharedThreshold", "Load": "SharedThreshold", "Threshold": "Collector"}

// isThresholdCall reports whether e is a thresholdReads call.
func isThresholdCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && thresholdReads[sel.Sel.Name] != "" && isNamed(info.TypeOf(sel.X), thresholdReads[sel.Sel.Name])
}

// boundBinaryRule is the direction-aware propagation: an upper bound
// survives +, * on either side and -, / on the LEFT; subtracting a
// bound or dividing by one flips the inequality direction and yields a
// conservative threshold instead, so the label drops. Comparisons and
// logical operators produce booleans, never bounds.
func boundBinaryRule(op token.Token, x, y ast.Expr, xt, yt bool) bool {
	switch op {
	case token.SUB, token.QUO:
		return xt
	case token.ADD, token.MUL, token.REM, token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
		return xt || yt
	}
	return false
}

// thresholdBinaryRule: a threshold shifted or scaled by anything is
// still a threshold (`t - margin`, `t / lenBound`).
func thresholdBinaryRule(op token.Token, x, y ast.Expr, xt, yt bool) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
		return xt || yt
	}
	return false
}

func (f *boundFunc) labelled(l int, node ast.Node, e ast.Expr) bool {
	return f.res[l] != nil && f.res[l].Tainted(node, e)
}

// orient is the side a comparison's bound reads on: 1 for the left (a
// bound on the left or a threshold on the right — `b < t` prunes), -1
// for the right, 0 when no side is labelled or both are.
func (f *boundFunc) orient(node ast.Node, be *ast.BinaryExpr) int {
	left := f.labelled(labelBound, node, be.X) || f.labelled(labelThreshold, node, be.Y)
	right := f.labelled(labelBound, node, be.Y) || f.labelled(labelThreshold, node, be.X)
	switch {
	case left && !right:
		return 1
	case right && !left:
		return -1
	}
	return 0
}

// negated reports whether e negates a labelled value outside any call.
func (f *boundFunc) negated(node ast.Node, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr, *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.SUB && (f.labelled(labelBound, node, x.X) || f.labelled(labelThreshold, node, x.X)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// mirror maps each ordered comparison to the same test with its sides
// swapped.
var mirror = map[token.Token]token.Token{token.LSS: token.GTR, token.GTR: token.LSS, token.LEQ: token.GEQ, token.GEQ: token.LEQ}

// boundLeft rewrites comparison operator op at orientation o so that the
// bound reads on the left: `t > b` is `b < t`.
func boundLeft(op token.Token, o int) token.Token {
	if m, ok := mirror[op]; ok && o < 0 {
		return m
	}
	return op
}

func (b *boundUnit) check(obj types.Object, f *boundFunc) {
	fd := b.cg.Decls[obj]
	fnIsBound := b.annotated(fd.Pos())
	inspectFlow(f.g, func(node, n ast.Node) {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			b.checkComparison(f, node, e)
		case *ast.ReturnStmt:
			if fnIsBound {
				return
			}
			for _, r := range e.Results {
				if f.labelled(labelBound, node, r) {
					b.mp.Reportf(b.u.Fset.Position(r.Pos()),
						"bound-derived value returned from a function not annotated //fex:bound: callers will treat the result as exact; annotate the function (making callers inherit the taint) or recompute the exact value before returning (PAPER.md §4)")
				}
			}
		}
	})
	if countsPrunes(obj) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok {
				b.checkExit(f, ifs)
			}
			_, lit := n.(*ast.FuncLit)
			return !lit
		})
	}
}

func (b *boundUnit) checkComparison(f *boundFunc, node ast.Node, be *ast.BinaryExpr) {
	if _, ordered := mirror[be.Op]; !ordered && be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	o := f.orient(node, be)
	if o == 0 {
		return
	}
	what := "threshold"
	if f.labelled(labelBound, node, be.X) || f.labelled(labelBound, node, be.Y) {
		what = "bound"
	}
	pos := b.u.Fset.Position(be.OpPos)
	op := be.Op.String()
	if f.negated(node, be.X) || f.negated(node, be.Y) {
		b.mp.Reportf(pos, "comparison %q on a negated %s-derived value: negation flips the inequality, so no operator rewrite keeps the prune strict; compare the bound and the threshold un-negated (prune b < t, keep b >= t)", op, what)
		return
	}
	var fixed token.Token
	switch boundLeft(be.Op, o) {
	case token.LSS, token.GEQ:
		return
	case token.LEQ:
		fixed = boundLeft(token.LSS, o)
	case token.GTR:
		fixed = boundLeft(token.GEQ, o)
	}
	msg := "comparison %q on a " + what + "-derived value prunes or drops exact ties: an upper bound b >= score admits only strict prune (b < t) and tie-keeping keep (b >= t)"
	if fixed == token.ILLEGAL { // == and != have no conservative rewrite
		b.mp.Reportf(pos, msg, op)
		return
	}
	b.mp.ReportFix(pos, SuggestedFix{
		Message: "replace " + op + " with " + fixed.String(),
		Edits: []TextEdit{{
			File:    pos.Filename,
			Offset:  pos.Offset,
			End:     pos.Offset + len(op),
			NewText: fixed.String(),
		}},
	}, msg+"; use "+fixed.String(), op)
}

// checkExit is rule 2 for one if statement.
func (b *boundUnit) checkExit(f *boundFunc, ifs *ast.IfStmt) {
	cond, neg := ast.Unparen(ifs.Cond), false
	for u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT; u, ok = cond.(*ast.UnaryExpr) {
		cond, neg = ast.Unparen(u.X), !neg
	}
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	if _, ordered := mirror[be.Op]; !ordered {
		return
	}
	// The CFG node of an if condition is flow.Cond{cond}: a comparable
	// value, so it is rebuilt here rather than looked up.
	o := f.orient(flow.Cond{Expr: ifs.Cond}, be)
	if o == 0 {
		return
	}
	var branch ast.Stmt = ifs.Body
	if op := boundLeft(be.Op, o); (op == token.LSS || op == token.LEQ) == neg {
		branch = ifs.Else
	}
	if block, ok := branch.(*ast.BlockStmt); ok && endsInExit(block) && !incrementsStageCounter(block) {
		b.mp.Reportf(b.u.Fset.Position(ifs.If),
			"prune exit does not increment a PrunedBy* stage counter; uncounted prunes corrupt the Tables 3/7 telemetry")
	}
}

// countsPrunes reports whether fn can count a prune: its receiver or a
// parameter is (a pointer to) a Stats, or a struct holding one.
func countsPrunes(fn types.Object) bool {
	sig := fn.Type().(*types.Signature)
	vars := []*types.Var{sig.Recv()}
	for i := range sig.Params().Len() {
		vars = append(vars, sig.Params().At(i))
	}
	for _, v := range vars {
		if v == nil {
			continue
		}
		t := v.Type()
		if isNamed(t, "Stats") {
			return true
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if isNamed(st.Field(i).Type(), "Stats") {
					return true
				}
			}
		}
	}
	return false
}

// endsInExit reports whether the block's last statement leaves the loop
// or function.
func endsInExit(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.BranchStmt:
		return last.Tok == token.BREAK || last.Tok == token.CONTINUE
	case *ast.ReturnStmt:
		return true
	}
	return false
}

// incrementsStageCounter reports whether the block (recursively)
// contains a += or ++ on a field named PrunedBy*.
func incrementsStageCounter(block *ast.BlockStmt) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		var lhs []ast.Expr
		switch node := n.(type) {
		case *ast.AssignStmt:
			if node.Tok == token.ADD_ASSIGN {
				lhs = node.Lhs
			}
		case *ast.IncDecStmt:
			if node.Tok == token.INC {
				lhs = []ast.Expr{node.X}
			}
		}
		for _, e := range lhs {
			if sel, ok := e.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "PrunedBy") {
				found = true
			}
		}
		return !found
	})
	return found
}
