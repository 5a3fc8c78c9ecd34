package flow

import (
	"go/ast"
	"go/types"
)

// CallGraph is the static call graph of one compilation unit: which
// function declarations call which, resolved through go/types (methods
// included, function values and interface calls excluded — a may-call
// analysis that only records edges it can prove).
type CallGraph struct {
	// Decls maps each function/method object declared in the unit to its
	// declaration.
	Decls map[types.Object]*ast.FuncDecl
	// Callees maps a declared function to the set of objects it calls
	// directly (same unit or imported — callers filter by Decls
	// membership when they need a body to descend into).
	Callees map[types.Object][]types.Object
}

// BuildCallGraph walks every function declaration in files and resolves
// direct calls via info. Calls inside function literals are attributed
// to the enclosing declaration (the literal runs with the function's
// resources in the patterns we lint — defers, goroutine bodies).
func BuildCallGraph(files []*ast.File, info *types.Info) *CallGraph {
	cg := &CallGraph{
		Decls:   make(map[types.Object]*ast.FuncDecl),
		Callees: make(map[types.Object][]types.Object),
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			cg.Decls[obj] = fd
			seen := make(map[types.Object]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := Callee(info, call)
				if callee != nil && !seen[callee] {
					seen[callee] = true
					cg.Callees[obj] = append(cg.Callees[obj], callee)
				}
				return true
			})
		}
	}
	return cg
}

// Callee resolves the static callee object of call, or nil for dynamic
// calls (function values, interface methods resolve to the interface
// method object — still useful for naming) and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		return nil
	}
	if _, ok := obj.(*types.Func); !ok {
		return nil // variable of function type, or a type conversion
	}
	return obj
}

// Reachable computes the set of declared functions reachable in cg from
// the given roots, following only edges whose target is declared in the
// same unit.
func (cg *CallGraph) Reachable(roots []types.Object) map[types.Object]bool {
	seen := make(map[types.Object]bool)
	stack := append([]types.Object(nil), roots...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		for _, callee := range cg.Callees[fn] {
			if _, declared := cg.Decls[callee]; declared && !seen[callee] {
				stack = append(stack, callee)
			}
		}
	}
	return seen
}
