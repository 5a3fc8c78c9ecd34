package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// objset is the lattice element: the set of variables currently tainted.
type objset map[types.Object]bool

func (s objset) clone() objset {
	out := make(objset, len(s))
	for k, v := range s {
		if v {
			out[k] = true
		}
	}
	return out
}

// union merges src into dst, reporting whether dst changed.
func (s objset) union(src objset) bool {
	changed := false
	for k, v := range src {
		if v && !s[k] {
			s[k] = true
			changed = true
		}
	}
	return changed
}

// TaintSpec configures one taint analysis over a Graph.
type TaintSpec struct {
	Info *types.Info

	// Source reports whether expr introduces taint by itself (a call to
	// a bound-producing function, an annotated definition site, ...).
	// It is consulted at every sub-expression.
	Source func(expr ast.Expr) bool

	// Binary decides whether taint propagates through `x op y` given
	// each operand's taint. Nil means "either operand taints" — the
	// classic may-taint rule. boundflow installs a direction-aware rule
	// (an upper bound stays an upper bound under + and *, but dividing
	// BY a bound, or subtracting a bound, flips the direction and drops
	// the taint).
	Binary func(op token.Token, x, y ast.Expr, xTainted, yTainted bool) bool

	// SourceStmt reports whether an entire assignment/declaration
	// statement is an annotated source: its left-hand sides become
	// tainted regardless of the right-hand expression (the //fex:bound
	// directive on a definition line).
	SourceStmt func(stmt ast.Node) bool

	// Entry lists the variables tainted on function entry: the
	// parameters whose arguments carry the taint at some call site.
	Entry []types.Object
}

// TaintResult answers flow-sensitive taint queries after Solve.
type TaintResult struct {
	spec TaintSpec
	// before holds the tainted-variable set in force immediately before
	// each CFG node executes.
	before map[ast.Node]objset
}

// Solve runs the taint analysis to fixpoint over g and returns the
// per-node solution. The analysis is a forward may-analysis with strong
// updates on plain `x = ...` assignments (reassigning a variable from
// an untainted expression KILLS its taint — the sanitizing
// exact-recompute idiom) and weak updates through fields and indices.
func Solve(g *Graph, spec TaintSpec) *TaintResult {
	entry := make([]objset, len(g.Blocks))
	for i := range entry {
		entry[i] = objset{}
	}
	for _, obj := range spec.Entry {
		entry[g.Entry.Index][obj] = true
	}

	// Worklist to fixpoint. A successor is (re)queued when its entry
	// state changes OR it has never been processed — without the
	// first-visit rule, blocks whose entry stays the bottom element
	// would never run their transfer functions at all.
	work := []*Block{g.Entry}
	inWork := make([]bool, len(g.Blocks))
	visited := make([]bool, len(g.Blocks))
	inWork[g.Entry.Index] = true
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk.Index] = false
		visited[blk.Index] = true
		state := entry[blk.Index].clone()
		for _, n := range blk.Nodes {
			transfer(spec, state, n)
		}
		for _, succ := range blk.Succs {
			changed := entry[succ.Index].union(state)
			if (changed || !visited[succ.Index]) && !inWork[succ.Index] {
				inWork[succ.Index] = true
				work = append(work, succ)
			}
		}
	}

	// One more deterministic pass to record the state before each node.
	res := &TaintResult{spec: spec, before: make(map[ast.Node]objset)}
	for _, blk := range g.Blocks {
		state := entry[blk.Index].clone()
		for _, n := range blk.Nodes {
			res.before[n] = state.clone()
			transfer(spec, state, n)
		}
	}
	return res
}

// Tainted reports whether expr is tainted at the program point just
// before node executes. node must be a CFG node of the solved graph;
// unknown nodes answer with the empty state (nothing tainted).
func (t *TaintResult) Tainted(node ast.Node, expr ast.Expr) bool {
	return exprTaint(t.spec, t.before[node], expr)
}

// transfer applies one CFG node's effect to state in place.
func transfer(spec TaintSpec, state objset, n ast.Node) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		annotated := spec.SourceStmt != nil && spec.SourceStmt(s)
		// Evaluate RHS taint against the pre-state, then update.
		taints := make([]bool, len(s.Lhs))
		switch {
		case len(s.Lhs) == len(s.Rhs):
			for i, rhs := range s.Rhs {
				tv := exprTaint(spec, state, rhs)
				if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
					// Compound assignment x op= y behaves like x = x op y.
					op := compoundOp(s.Tok)
					xt := exprTaint(spec, state, s.Lhs[i])
					tv = combine(spec, op, s.Lhs[i], rhs, xt, tv)
				}
				taints[i] = tv || annotated
			}
		case len(s.Rhs) == 1:
			// Tuple assignment: the call/comma-ok result taints every
			// left-hand side if the source expression is tainted.
			tv := exprTaint(spec, state, s.Rhs[0]) || annotated
			for i := range taints {
				taints[i] = tv
			}
		}
		for i, lhs := range s.Lhs {
			assign(spec, state, lhs, taints[i])
		}

	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		annotated := spec.SourceStmt != nil && spec.SourceStmt(s)
		for _, sp := range gd.Specs {
			vs, ok := sp.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				tv := annotated
				if i < len(vs.Values) {
					tv = tv || exprTaint(spec, state, vs.Values[i])
				} else if len(vs.Values) == 1 {
					tv = tv || exprTaint(spec, state, vs.Values[0])
				}
				if obj := spec.Info.Defs[name]; obj != nil {
					setTaint(state, obj, tv)
				}
			}
		}

	case *ast.IncDecStmt:
		// x++ / x-- keep x's taint: an upper bound shifted by a constant
		// is still an upper bound of the shifted quantity.

	case *RangeAssign:
		tv := exprTaint(spec, state, s.X)
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e == nil {
				continue
			}
			assign(spec, state, e, tv)
		}
	}
}

// assign updates state for one left-hand side receiving a value whose
// taint is tv. Plain identifiers get a strong update (set or KILL);
// fields, indices, and dereferences taint their root object weakly
// (never killed — other fields may still hold tainted values).
func assign(spec TaintSpec, state objset, lhs ast.Expr, tv bool) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := spec.Info.Defs[l]
		if obj == nil {
			obj = spec.Info.Uses[l]
		}
		if obj != nil {
			setTaint(state, obj, tv)
		}
	case *ast.ParenExpr:
		assign(spec, state, l.X, tv)
	default:
		if !tv {
			return // weak update: cannot clear through a field/index
		}
		if root := rootIdent(lhs); root != nil {
			obj := spec.Info.Uses[root]
			if obj == nil {
				obj = spec.Info.Defs[root]
			}
			if obj != nil {
				state[obj] = true
			}
		}
	}
}

func setTaint(state objset, obj types.Object, tv bool) {
	if tv {
		state[obj] = true
	} else {
		delete(state, obj)
	}
}

// exprTaint evaluates the taint of an expression against state.
func exprTaint(spec TaintSpec, state objset, e ast.Expr) bool {
	if e == nil || state == nil {
		return false
	}
	if spec.Source != nil && spec.Source(e) {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		if obj := spec.Info.Uses[x]; obj != nil {
			return state[obj]
		}
		if obj := spec.Info.Defs[x]; obj != nil {
			return state[obj]
		}
	case *ast.ParenExpr:
		return exprTaint(spec, state, x.X)
	case *ast.UnaryExpr:
		// -bound is a lower bound (direction flips), but the value is
		// still bound-DERIVED: taint stays, and boundflow reports any
		// comparison over a negated tainted value. &x and +x pass through.
		return exprTaint(spec, state, x.X)
	case *ast.StarExpr:
		return exprTaint(spec, state, x.X)
	case *ast.BinaryExpr:
		xt := exprTaint(spec, state, x.X)
		yt := exprTaint(spec, state, x.Y)
		return combine(spec, x.Op, x.X, x.Y, xt, yt)
	case *ast.CallExpr:
		// Type conversions are transparent: float64(boundInt) is still a
		// bound. Other calls are opaque (untainted) unless Source says
		// otherwise — an exact recompute through vec.Dot SANITIZES.
		if tv, ok := spec.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return exprTaint(spec, state, x.Args[0])
		}
	case *ast.SelectorExpr:
		// Field read: tainted iff the root variable is tainted (the
		// weak-update counterpart of assign).
		if root := rootIdent(x); root != nil {
			if obj := spec.Info.Uses[root]; obj != nil {
				return state[obj]
			}
		}
	case *ast.IndexExpr:
		return exprTaint(spec, state, x.X)
	case *ast.SliceExpr:
		return exprTaint(spec, state, x.X)
	}
	return false
}

// combine applies the binary propagation rule.
func combine(spec TaintSpec, op token.Token, x, y ast.Expr, xt, yt bool) bool {
	if spec.Binary != nil {
		return spec.Binary(op, x, y, xt, yt)
	}
	return xt || yt
}

// compoundOp maps an op= token to its underlying operator.
func compoundOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT
	}
	return tok
}

// rootIdent returns the base identifier of a selector/index/star/paren
// chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
