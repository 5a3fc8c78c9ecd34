// Package flow is fexlint's stdlib-only dataflow layer: per-function
// control-flow graphs over go/ast, a worklist solver for a configurable
// taint lattice, and a per-unit static call graph. It exists so
// analyzers can reason about VALUES (where a bound-derived float can
// flow) and CALLS (whether a callee blocks)
// instead of pattern-matching tokens — the upgrade that turns fexlint's
// hot-path contracts from syntactic checks into semantic ones
// (DESIGN.md §14).
//
// The graphs are statement-granular: every statement, loop condition,
// and range operand is one node of a basic block, in execution order.
// Function literals are deliberately NOT part of the enclosing
// function's graph — they run on their own schedule; analyzers build a
// separate graph per literal when they care.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line run of statement
// nodes with edges to its possible successors.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, dense).
	Index int
	// Nodes holds statements and control expressions (if/for/switch
	// conditions, range operands) in execution order.
	Nodes []ast.Node
	// Succs are the blocks control may transfer to after this one.
	Succs []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is executed first; Exit is the unique sink every return and
	// fall-off-the-end path reaches. Exit holds no nodes.
	Entry, Exit *Block
	// Blocks lists every block, Entry first. Unreachable blocks (dead
	// code after return, empty labels) may appear; solvers iterate from
	// Entry so they simply never contribute.
	Blocks []*Block
}

// cond wraps a control expression so CFG nodes are always ast.Node and
// solvers can tell a condition from an expression statement if needed.
// Transfer functions usually treat it like any other expression read.
type Cond struct {
	ast.Expr
}

// RangeAssign marks the implicit per-iteration assignment of a range
// loop: Key/Value (either may be nil) are assigned from X on every
// iteration. Define reports whether the loop uses := .
type RangeAssign struct {
	Key, Value ast.Expr
	X          ast.Expr
	Define     bool
	pos        token.Pos
}

// Pos implements ast.Node.
func (r *RangeAssign) Pos() token.Pos { return r.pos }

// End implements ast.Node.
func (r *RangeAssign) End() token.Pos { return r.pos }

// builder accumulates blocks while walking one function body.
type builder struct {
	g *Graph
	// cur is the block currently being appended to; nil after a
	// terminator (return/branch) until the next label or join point.
	cur *Block
	// break/continue targets of the enclosing loop/switch/select stack.
	breaks    []*Block
	continues []*Block
	// labels maps label names to their blocks (goto/labelled break).
	labels map[string]*labelInfo
}

type labelInfo struct {
	block *Block // target of goto label / the labelled statement
	// brk/cont are the break/continue targets when the labelled
	// statement is a loop or switch.
	brk, cont *Block
	pending   []*Block // gotos seen before the label definition
}

// New builds the control-flow graph of body. The body may be any block
// statement (a function body, or a function literal's).
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: make(map[string]*labelInfo)}
	g.Entry = b.newBlock()
	g.Exit = &Block{}
	b.cur = g.Entry
	b.stmtList(body.List)
	// Fall off the end: implicit return.
	b.jump(g.Exit)
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// add appends a node to the current block, opening a fresh block if the
// previous one was terminated.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable code still gets a block
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jump terminates the current block with an edge to dst.
func (b *builder) jump(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
	b.cur = nil
}

// startAfter opens and returns a new block that the current block flows
// into (a join point or loop header).
func (b *builder) startAfter() *Block {
	blk := b.newBlock()
	b.jump(blk)
	b.cur = blk
	return blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(Cond{s.Cond})
		condBlk := b.cur
		join := &Block{}

		thenBlk := b.newBlock()
		condBlk.Succs = append(condBlk.Succs, thenBlk)
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		b.jump(join)

		if s.Else != nil {
			elseBlk := b.newBlock()
			condBlk.Succs = append(condBlk.Succs, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.jump(join)
		} else {
			condBlk.Succs = append(condBlk.Succs, join)
		}
		join.Index = len(b.g.Blocks)
		b.g.Blocks = append(b.g.Blocks, join)
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		header := b.startAfter()
		if s.Cond != nil {
			b.add(Cond{s.Cond})
		}
		condBlk := b.cur
		after := &Block{}
		post := &Block{}

		bodyBlk := b.newBlock()
		condBlk.Succs = append(condBlk.Succs, bodyBlk)
		if s.Cond != nil {
			condBlk.Succs = append(condBlk.Succs, after)
		}
		b.pushLoop(after, post)
		b.cur = bodyBlk
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(post)
		post.Index = len(b.g.Blocks)
		b.g.Blocks = append(b.g.Blocks, post)
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.jump(header)
		after.Index = len(b.g.Blocks)
		b.g.Blocks = append(b.g.Blocks, after)
		b.cur = after

	case *ast.RangeStmt:
		header := b.startAfter()
		b.add(&RangeAssign{Key: s.Key, Value: s.Value, X: s.X, Define: s.Tok == token.DEFINE, pos: s.Pos()})
		headEnd := b.cur
		after := &Block{}
		bodyBlk := b.newBlock()
		headEnd.Succs = append(headEnd.Succs, bodyBlk, after)
		b.pushLoop(after, header)
		b.cur = bodyBlk
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(header)
		after.Index = len(b.g.Blocks)
		b.g.Blocks = append(b.g.Blocks, after)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(Cond{s.Tag})
		}
		b.caseClauses(s.Body.List, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, true)

	case *ast.SelectStmt:
		b.caseClauses(s.Body.List, false)

	case *ast.LabeledStmt:
		blk := b.startAfter()
		info := b.labels[s.Label.Name]
		if info == nil {
			info = &labelInfo{}
			b.labels[s.Label.Name] = info
		}
		info.block = blk
		for _, p := range info.pending {
			p.Succs = append(p.Succs, blk)
		}
		info.pending = nil
		// Labelled loops: break/continue LABEL resolve through the loop
		// statement itself; record targets while building it.
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			after := &Block{}
			info.brk = after
			if _, isLoop := inner.(*ast.ForStmt); isLoop {
				info.cont = nil // filled by the loop build via pushLoop
			}
			b.stmt(s.Stmt)
			// The inner statement's natural "after" block is b.cur; route
			// labelled breaks there too.
			if b.cur != nil {
				after.Succs = append(after.Succs, b.cur)
			}
			after.Index = len(b.g.Blocks)
			b.g.Blocks = append(b.g.Blocks, after)
		default:
			b.stmt(s.Stmt)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if info := b.labels[s.Label.Name]; info != nil && info.brk != nil {
					b.jump(info.brk)
					return
				}
			}
			if n := len(b.breaks); n > 0 {
				b.jump(b.breaks[n-1])
				return
			}
			b.cur = nil
		case token.CONTINUE:
			if s.Label != nil {
				if info := b.labels[s.Label.Name]; info != nil && info.cont != nil {
					b.jump(info.cont)
					return
				}
			}
			if n := len(b.continues); n > 0 {
				b.jump(b.continues[n-1])
				return
			}
			b.cur = nil
		case token.GOTO:
			if s.Label != nil {
				info := b.labels[s.Label.Name]
				if info == nil {
					info = &labelInfo{}
					b.labels[s.Label.Name] = info
				}
				if info.block != nil {
					b.jump(info.block)
				} else if b.cur != nil {
					info.pending = append(info.pending, b.cur)
					b.cur = nil
				}
				return
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally by caseClauses; treat as block end.
			b.cur = nil
		}

	default:
		// Plain statements: assignments, declarations, expression
		// statements, sends, inc/dec, defer, go, empty.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
	}
}

// pushLoop records break/continue targets for a loop body.
func (b *builder) pushLoop(brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	// Labelled loops: wire the innermost pending label to these targets.
	for _, info := range b.labels {
		if info.brk != nil && info.cont == nil && cont != nil {
			info.cont = cont
		}
	}
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// caseClauses builds switch/select bodies: every clause is an
// alternative successor of the current block; all clauses join after.
// loop==true adds a break target (switches break, selects too).
func (b *builder) caseClauses(clauses []ast.Stmt, isSwitch bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := &Block{}
	b.breaks = append(b.breaks, join)
	hasDefault := false
	var prevEnd *Block // end of a clause that falls through
	for _, c := range clauses {
		var bodyStmts []ast.Stmt
		var guard ast.Node
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			if len(cc.List) > 0 {
				guard = Cond{cc.List[0]} // representative; reads only
			}
			bodyStmts = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				guard = cc.Comm
			}
			bodyStmts = cc.Body
		default:
			continue
		}
		blk := b.newBlock()
		head.Succs = append(head.Succs, blk)
		b.cur = blk
		if guard != nil {
			if st, ok := guard.(ast.Stmt); ok {
				b.stmt(st)
			} else {
				b.add(guard)
			}
		}
		// fallthrough from the previous clause lands at this clause body.
		if prevEnd != nil {
			prevEnd.Succs = append(prevEnd.Succs, blk)
			prevEnd = nil
		}
		fallsThrough := false
		if n := len(bodyStmts); n > 0 {
			if br, ok := bodyStmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmtList(bodyStmts)
		if fallsThrough && b.cur != nil {
			prevEnd = b.cur
			b.cur = nil
		} else {
			b.jump(join)
		}
	}
	if prevEnd != nil { // trailing fallthrough (illegal Go, but be safe)
		prevEnd.Succs = append(prevEnd.Succs, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	if !hasDefault || isSwitch {
		// A switch without default (or any switch: the no-match path)
		// may skip every clause.
		head.Succs = append(head.Succs, join)
	}
	join.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, join)
	b.cur = join
}
