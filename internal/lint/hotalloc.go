package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc guards the per-item cost of loops annotated //fex:hot (the
// innermost scan loops of internal/scan, internal/core, internal/lemp —
// the paths where FEXIPRO's speedups live or die). Inside a marked
// loop's body it flags the operations that allocate or defeat the
// optimizer:
//
//   - append (growth reallocates; accumulate outside or preallocate),
//   - make / new / composite literals (per-item heap traffic),
//   - string concatenation with + (allocates a new string per item),
//   - defer / go statements (defer queues a record per iteration; go
//     spawns per item),
//   - function literals (closure allocation, and captured variables are
//     forced to the heap),
//   - interface boxing: passing a concrete non-pointer value to an
//     interface-typed parameter (fmt-style variadics included) boxes an
//     allocation per call,
//   - span starts (obs.NewRoot / StartSpan / StartChild): a span is
//     per-QUERY instrumentation — starting one per scanned item
//     allocates and locks on the hottest path; attach spans around the
//     loop, never inside it (DESIGN.md §13).
//
// The directive goes on the line immediately above the for/range (or at
// the end of the same line). Nested function literals are flagged as a
// whole and not descended into — they already broke the loop's
// allocation budget.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no allocations, boxing, or closures inside //fex:hot loops",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, file := range pass.Files {
		fname := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(fname, "_test.go") {
			continue
		}
		hotLines := make(map[int]bool)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if text == "fex:hot" || strings.HasPrefix(text, "fex:hot ") {
					hotLines[pass.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		if len(hotLines) == 0 {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch s := n.(type) {
			case *ast.ForStmt:
				body = s.Body
			case *ast.RangeStmt:
				body = s.Body
			default:
				return true
			}
			line := pass.Fset.Position(n.Pos()).Line
			if !hotLines[line] && !hotLines[line-1] {
				return true
			}
			checkHotBody(pass, body)
			return true // nested marked loops get their own check
		})
	}
}

func checkHotBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(s.Pos(), "function literal inside a //fex:hot loop allocates a closure per iteration (and heap-escapes its captures)")
			return false
		case *ast.DeferStmt:
			pass.Reportf(s.Pos(), "defer inside a //fex:hot loop queues a defer record per iteration")
			return false
		case *ast.GoStmt:
			pass.Reportf(s.Pos(), "go statement inside a //fex:hot loop spawns a goroutine per iteration")
			return false
		case *ast.CompositeLit:
			pass.Reportf(s.Pos(), "composite literal inside a //fex:hot loop allocates per iteration; hoist it or write into preallocated scratch")
			return false
		case *ast.BinaryExpr:
			if s.Op == token.ADD && isStringExpr(pass, s.X) {
				pass.Reportf(s.OpPos, "string concatenation inside a //fex:hot loop allocates per iteration")
			}
		case *ast.CallExpr:
			checkHotCall(pass, s)
		}
		return true
	})
}

// spanStartFuncs are the span-creating entry points of internal/obs;
// calling any of them per scanned item turns tracing's per-query cost
// into a per-item one.
var spanStartFuncs = map[string]bool{
	"NewRoot": true, "StartSpan": true, "StartChild": true,
}

// isObsSpanStart reports whether the call creates an obs span: either
// a package-level obs.NewRoot/obs.StartSpan or the StartChild method
// on *obs.Span.
func isObsSpanStart(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !spanStartFuncs[sel.Sel.Name] {
		return "", false
	}
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/obs") {
		return "", false
	}
	return sel.Sel.Name, true
}

func checkHotCall(pass *Pass, call *ast.CallExpr) {
	if name, ok := isObsSpanStart(pass, call); ok {
		pass.Reportf(call.Pos(), "obs.%s inside a //fex:hot loop starts a span per scanned item; spans are per-query — attach them around the loop (DESIGN.md §13)", name)
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "append":
			if pass.Info.Uses[id] == nil || pass.Info.Uses[id].Parent() == types.Universe {
				pass.Reportf(call.Pos(), "append inside a //fex:hot loop reallocates on growth; preallocate capacity outside the loop or use a fixed-size collector")
				return
			}
		case "make", "new":
			if pass.Info.Uses[id] == nil || pass.Info.Uses[id].Parent() == types.Universe {
				pass.Reportf(call.Pos(), "%s inside a //fex:hot loop allocates per iteration; hoist the allocation", id.Name)
				return
			}
		}
	}
	// Interface boxing: a concrete (non-interface, non-pointer-sized-
	// elidable) argument passed to an interface-typed parameter.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue // interface-to-interface, no new box
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes %s into an interface inside a //fex:hot loop (one allocation per iteration)", at.String())
	}
}

// callSignature resolves the static signature of a call, or nil.
func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

func isStringExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
