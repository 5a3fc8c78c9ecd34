package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// typecheck parses src (a full file) and returns the first FuncDecl
// named name plus the populated types.Info.
func typecheck(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	if _, err := conf.Check("t", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info, []*ast.File{f}
		}
	}
	t.Fatalf("no func %s", name)
	return nil, nil, nil
}

func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"straightline", `x := 1; y := x + 1; _ = y`},
		{"if", `x := 1; if x > 0 { x = 2 } else { x = 3 }; _ = x`},
		{"ifNoElse", `x := 1; if x > 0 { x = 2 }; _ = x`},
		{"for", `s := 0; for i := 0; i < 10; i++ { s += i }; _ = s`},
		{"forInfinite", `for { if true { break }; continue }`},
		{"rangeLoop", `s := 0; for _, v := range []int{1, 2} { s += v }; _ = s`},
		{"switch", `x := 1; switch x { case 1: x = 2; case 2: x = 3; fallthrough; default: x = 4 }; _ = x`},
		{"typeSwitch", `var v interface{} = 1; switch v.(type) { case int: case string: }`},
		{"sel", `ch := make(chan int, 1); select { case v := <-ch: _ = v; default: }`},
		{"labels", `L: for i := 0; i < 3; i++ { for { continue L } }; goto M; M: return`},
		{"gotoFwd", `x := 0; if x > 0 { goto done }; x = 1; done: _ = x`},
		{"deadCode", `return; x := 1; _ = x`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package t\nfunc f() {\n" + tc.body + "\n}\n"
			fd, _, _ := typecheck(t, src, "f")
			g := New(fd.Body)
			if g.Entry == nil || g.Exit == nil {
				t.Fatal("missing entry/exit")
			}
			if len(g.Exit.Nodes) != 0 {
				t.Fatalf("exit block holds nodes: %v", g.Exit.Nodes)
			}
			// Every block's successors must be registered blocks, and the
			// exit must be reachable from the entry.
			idx := make(map[*Block]bool, len(g.Blocks))
			for _, b := range g.Blocks {
				idx[b] = true
			}
			seen := map[*Block]bool{}
			stack := []*Block{g.Entry}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[b] {
					continue
				}
				seen[b] = true
				for _, s := range b.Succs {
					if !idx[s] {
						t.Fatalf("edge to unregistered block %d", s.Index)
					}
					stack = append(stack, s)
				}
			}
			if !seen[g.Exit] {
				t.Fatal("exit unreachable from entry")
			}
		})
	}
}

// findNode returns the first CFG node whose source text contains want.
func findNode(t *testing.T, g *Graph, fset *token.FileSet, src, want string) ast.Node {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Pos() == token.NoPos {
				continue
			}
			// crude but robust: slice the original source
			start, end := int(n.Pos())-1, int(n.End())-1
			if start >= 0 && end <= len(src) && strings.Contains(src[start:end], want) {
				return n
			}
		}
	}
	t.Fatalf("no CFG node containing %q", want)
	return nil
}

const taintSrc = `package t

func bound() float64 { return 2.0 }

func f(t float64) bool {
	b := bound()       // tainted by Source
	c := b * 1.5       // stays tainted through *
	d := t / b         // direction flip: / by bound drops taint
	b = 0.0            // strong update kills b
	after := b + 1     // ...so after is clean
	_ = after
	return c < t && d < t
}

func loop(t float64) float64 {
	acc := 0.0
	for i := 0; i < 4; i++ {
		acc = acc + bound() // taint enters on iteration 1, must reach header
	}
	sink := acc
	return sink
}
`

func taintSpecFor(info *types.Info) TaintSpec {
	return TaintSpec{
		Info: info,
		Source: func(e ast.Expr) bool {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == "bound"
		},
		Binary: func(op token.Token, x, y ast.Expr, xt, yt bool) bool {
			// direction-aware: bound survives +,*,- (left), / (left);
			// x-bound and x/bound flip direction → drop.
			switch op {
			case token.SUB, token.QUO:
				return xt
			default:
				return xt || yt
			}
		},
	}
}

func TestTaintPropagation(t *testing.T) {
	fd, info, _ := typecheck(t, taintSrc, "f")
	g := New(fd.Body)
	res := Solve(g, taintSpecFor(info))

	ret := findNode(t, g, nil, taintSrc, "return c < t")
	bin := ret.(*ast.ReturnStmt).Results[0].(*ast.BinaryExpr)
	left := bin.X.(*ast.BinaryExpr)  // c < t
	right := bin.Y.(*ast.BinaryExpr) // d < t

	if !res.Tainted(ret, left.X) {
		t.Error("c should be tainted (bound * 1.5)")
	}
	if res.Tainted(ret, right.X) {
		t.Error("d should be clean (t / bound flips direction)")
	}
	if res.Tainted(ret, left.Y) {
		t.Error("t should never be tainted")
	}

	afterStmt := findNode(t, g, nil, taintSrc, "after := b + 1")
	as := afterStmt.(*ast.AssignStmt)
	if res.Tainted(afterStmt, as.Rhs[0]) {
		t.Error("b reassigned to 0.0 must kill taint before `after`")
	}

	// Entry seeds a parameter: t, clean above, is tainted from entry on.
	spec := taintSpecFor(info)
	spec.Entry = []types.Object{info.Defs[fd.Type.Params.List[0].Names[0]]}
	if !Solve(g, spec).Tainted(ret, left.Y) {
		t.Error("t seeded through Entry should be tainted")
	}
}

func TestTaintThroughLoop(t *testing.T) {
	fd, info, _ := typecheck(t, taintSrc, "loop")
	g := New(fd.Body)
	res := Solve(g, taintSpecFor(info))

	sinkStmt := findNode(t, g, nil, taintSrc, "sink := acc")
	as := sinkStmt.(*ast.AssignStmt)
	if !res.Tainted(sinkStmt, as.Rhs[0]) {
		t.Error("acc tainted inside the loop must still be tainted after it")
	}
}

const cgSrc = `package t

type T struct{}

func (t *T) m() { helper() }
func helper()  { leaf() }
func leaf()    {}
func top()     { (&T{}).m() }
func dyn(f func()) { f() }
`

func TestCallGraph(t *testing.T) {
	_, info, files := typecheck(t, cgSrc, "top")
	cg := BuildCallGraph(files, info)

	objByName := func(name string) types.Object {
		for obj := range cg.Decls {
			if obj.Name() == name {
				return obj
			}
		}
		t.Fatalf("no decl %s", name)
		return nil
	}

	topObj := objByName("top")
	reach := cg.Reachable([]types.Object{topObj})
	for _, want := range []string{"top", "m", "helper", "leaf"} {
		if !reach[objByName(want)] {
			t.Errorf("%s should be reachable from top", want)
		}
	}
	if reach[objByName("dyn")] {
		t.Error("dyn is not called by top")
	}

	// Dynamic call f() resolves to no callee.
	dynObj := objByName("dyn")
	if n := len(cg.Callees[dynObj]); n != 0 {
		t.Errorf("dyn should have 0 resolved callees, got %d", n)
	}
}
