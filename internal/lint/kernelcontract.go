package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// KernelContract enforces the engine.Kernel contract of DESIGN.md §11
// on every type that structurally implements it (methods Shards,
// Prepare, and a context-first Scan):
//
//  1. Threshold comparisons reachable from Scan must be strictly
//     conservative. Values derived from SharedThreshold.Floor/Load or
//     Collector.Threshold may only appear in comparisons whose equality
//     case keeps the candidate: with the threshold on the right, only
//     `<` (strict prune) and `>=` (tie-keeping keep) are legal; on the
//     left, `>` and `<=`. Anything else (`bound <= t`, `bound > t`,
//     `==`, `!=`) prunes or drops exact ties and silently breaks the
//     S-invariance proof. Violations carry a suggested fix restoring
//     the conservative operator.
//  2. Scan must not mutate kernel state: the engine calls Scan from
//     multiple goroutines for distinct shards of the same query, so all
//     per-query scratch must live in Prepare's return value or the
//     engine-supplied collector. Assignments through a pointer receiver
//     are flagged; a documented synchronization scheme needs a
//     //lint:ignore kernelcontract directive citing it.
//
// That the S=1 ⇔ S>1 bit-identity is pinned by a test is not checked
// here: a kernel reaches production by being registered, and
// internal/method's registry-driven test runs every registered method
// through searchtest.CheckSharded.
var KernelContract = &Analyzer{
	Name: "kernelcontract",
	Doc:  "engine.Kernel implementations: strict threshold comparisons, no state mutation in Scan",
	Run:  runKernelContract,
}

func runKernelContract(pass *Pass) {
	// Group methods by receiver type name, non-test files only.
	methods := make(map[string]map[string]*ast.FuncDecl)
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pass.Files {
		testFile := strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
			if testFile || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recv := receiverTypeName(fd.Recv.List[0].Type)
			if recv == "" {
				continue
			}
			if methods[recv] == nil {
				methods[recv] = make(map[string]*ast.FuncDecl)
			}
			methods[recv][fd.Name.Name] = fd
		}
	}

	var kernels []*ast.FuncDecl // the Scan decls of kernel types
	for typeName, ms := range methods {
		scan := ms["Scan"]
		if scan == nil || ms["Shards"] == nil || ms["Prepare"] == nil {
			continue
		}
		if scan.Type.Params == nil || len(scan.Type.Params.List) == 0 ||
			!isContextType(pass.TypeOf(scan.Type.Params.List[0].Type)) {
			continue
		}
		kernels = append(kernels, scan)
		checkScanMutation(pass, scan, typeName)
	}
	if len(kernels) > 0 {
		checkThresholdComparisons(pass, kernels, decls)
	}
}

// checkScanMutation flags assignments through Scan's pointer receiver.
func checkScanMutation(pass *Pass, scan *ast.FuncDecl, typeName string) {
	recvField := scan.Recv.List[0]
	if len(recvField.Names) == 0 {
		return // anonymous receiver cannot be referenced
	}
	if _, ok := recvField.Type.(*ast.StarExpr); !ok {
		return // value receiver: mutations stay in the copy
	}
	recvObj := pass.Info.Defs[recvField.Names[0]]
	if recvObj == nil {
		return
	}
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos,
			"Scan on kernel %s mutates receiver state (%s): the engine calls Scan concurrently across shards; move per-query scratch into Prepare's return value (DESIGN.md §11)",
			typeName, what)
	}
	ast.Inspect(scan.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if rootedAt(pass, lhs, recvObj) {
					report(lhs.Pos(), exprString(lhs))
				}
			}
		case *ast.IncDecStmt:
			if rootedAt(pass, s.X, recvObj) {
				report(s.X.Pos(), exprString(s.X))
			}
		}
		return true
	})
}

// rootedAt reports whether expr is a selector/index chain whose root
// identifier resolves to obj.
func rootedAt(pass *Pass, expr ast.Expr, obj types.Object) bool {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return pass.Info.Uses[e] == obj
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// exprString renders a selector chain for diagnostics.
func exprString(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	}
	return "expression"
}

// checkThresholdComparisons runs the strict-comparison discipline over
// every function reachable from a kernel Scan within the unit.
func checkThresholdComparisons(pass *Pass, roots []*ast.FuncDecl, decls map[types.Object]*ast.FuncDecl) {
	// Reachability walk, same-unit static calls.
	reachable := make(map[*ast.FuncDecl]bool)
	var walk func(fd *ast.FuncDecl)
	walk = func(fd *ast.FuncDecl) {
		if reachable[fd] {
			return
		}
		reachable[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeDecl(pass, decls, call); callee != nil {
				walk(callee)
			}
			return true
		})
	}
	for _, r := range roots {
		walk(r)
	}

	// Fixpoint: propagate threshold-derivedness through assignments and
	// same-unit call arguments.
	derived := make(map[types.Object]bool)
	isDerived := func(e ast.Expr) bool { return thresholdDerived(pass, derived, e) }
	for changed := true; changed; {
		changed = false
		for fd := range reachable {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					if len(s.Lhs) != len(s.Rhs) {
						return true
					}
					for i, rhs := range s.Rhs {
						if !isDerived(rhs) {
							continue
						}
						if id, ok := s.Lhs[i].(*ast.Ident); ok {
							obj := pass.Info.Defs[id]
							if obj == nil {
								obj = pass.Info.Uses[id]
							}
							if obj != nil && !derived[obj] {
								derived[obj] = true
								changed = true
							}
						}
					}
				case *ast.CallExpr:
					callee := calleeDecl(pass, decls, s)
					if callee == nil || !reachable[callee] {
						return true
					}
					params := flattenParams(callee)
					for i, arg := range s.Args {
						if i >= len(params) || params[i] == nil {
							continue
						}
						if isDerived(arg) {
							obj := pass.Info.Defs[params[i]]
							if obj != nil && !derived[obj] {
								derived[obj] = true
								changed = true
							}
						}
					}
				}
				return true
			})
		}
	}

	// Enforce comparison discipline.
	for fd := range reachable {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			op := be.Op.String()
			switch op {
			case "<", "<=", ">", ">=", "==", "!=":
			default:
				return true
			}
			if !isFloatExpr(pass, be.X) && !isFloatExpr(pass, be.Y) {
				return true
			}
			left, right := isDerived(be.X), isDerived(be.Y)
			if left == right {
				return true // neither side, or threshold-vs-threshold
			}
			var ok2 bool
			var fixed string
			if right { // threshold on the right: {<, >=} keep ties
				ok2 = op == "<" || op == ">="
				switch op {
				case "<=":
					fixed = "<"
				case ">":
					fixed = ">="
				}
			} else { // threshold on the left: {>, <=}
				ok2 = op == ">" || op == "<="
				switch op {
				case ">=":
					fixed = ">"
				case "<":
					fixed = "<="
				}
			}
			if ok2 {
				return true
			}
			msg := "threshold comparison %q prunes or drops exact ties: values derived from SharedThreshold.Floor/Collector.Threshold must keep the equality case (strict prune `bound < t`, tie-keeping keep `bound >= t`; DESIGN.md §11)"
			if fixed == "" { // == / != have no conservative rewrite
				pass.Reportf(be.OpPos, msg, op)
				return true
			}
			file := pass.Fset.Position(be.OpPos).Filename
			pass.ReportFix(be.OpPos, SuggestedFix{
				Message: "replace " + op + " with " + fixed,
				Edits: []TextEdit{{
					File:    file,
					Offset:  pass.Offset(be.OpPos),
					End:     pass.Offset(be.OpPos) + len(op),
					NewText: fixed,
				}},
			}, msg, op)
			return true
		})
	}
}

// calleeDecl resolves a call to a same-unit function declaration.
func calleeDecl(pass *Pass, decls map[types.Object]*ast.FuncDecl, call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return nil
	}
	return decls[obj]
}

// flattenParams returns one ident per positional parameter (nil for
// unnamed), matching argument positions for non-variadic prefixes.
func flattenParams(fd *ast.FuncDecl) []*ast.Ident {
	var out []*ast.Ident
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, name)
		}
	}
	return out
}

// thresholdDerived reports whether e computes a value derived from the
// shared/global pruning threshold: a SharedThreshold.Floor/Load or
// Collector.Threshold call, a variable marked derived, or arithmetic
// over a derived value.
func thresholdDerived(pass *Pass, derived map[types.Object]bool, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := pass.Info.Uses[x]; obj != nil {
			return derived[obj]
		}
		return false
	case *ast.ParenExpr:
		return thresholdDerived(pass, derived, x.X)
	case *ast.UnaryExpr:
		return x.Op.String() == "-" && thresholdDerived(pass, derived, x.X)
	case *ast.BinaryExpr:
		switch x.Op.String() {
		case "+", "-", "*", "/":
			return thresholdDerived(pass, derived, x.X) || thresholdDerived(pass, derived, x.Y)
		}
		return false
	case *ast.CallExpr:
		sel, ok := x.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch sel.Sel.Name {
		case "Floor", "Load":
			return isSharedThresholdType(pass.TypeOf(sel.X))
		case "Threshold":
			return isCollectorType(pass.TypeOf(sel.X))
		}
		return false
	}
	return false
}

// isSharedThresholdType matches (a pointer to) a named type called
// SharedThreshold.
func isSharedThresholdType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "SharedThreshold"
}

// isFloatExpr reports whether e has floating-point type.
func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
