// Control-flow graphs for the dataflow rules. buildCFG lowers one
// function body into basic blocks of *atomic* nodes — simple
// statements and the condition expressions that pick successors —
// with explicit edges for if/for/range/switch/select, labeled
// break/continue/goto, return, and the no-return calls (panic,
// os.Exit, runtime.Goexit, log.Fatal*). Structured statements never
// appear inside a block, so a rule's transfer function can walk every
// node of a block with plain ast.Inspect and touch each expression
// exactly once; nested *ast.FuncLit bodies are the one subtree
// transfer functions must skip (they get their own CFGs).
//
// The graph is deliberately small: no φ-nodes, no expression
// three-address lowering, no interprocedural edges. The dataflow
// rules built on it (lock-balance, goroutine-discipline) are
// intraprocedural must/may analyses over statement granularity, which
// is exactly what the repo's invariants need — "Unlock on every path",
// "wg.Done reaches every return".
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// implicitReturn is a synthetic node appended where control falls off
// the end of a function body, so dataflow rules can treat every exit
// path uniformly as "a return happens here".
type implicitReturn struct{ at token.Pos }

func (r *implicitReturn) Pos() token.Pos { return r.at }
func (r *implicitReturn) End() token.Pos { return r.at }

// blockKind marks blocks whose governing construct matters to a rule
// beyond the atomic nodes it holds (a select with no default blocks;
// a range head re-binds its loop variables each iteration).
type blockKind uint8

const (
	kindPlain blockKind = iota
	// kindRangeHead is a range loop's per-iteration dispatch:
	// Succs[0] enters the body, Succs[1] leaves the loop. Stmt is the
	// *ast.RangeStmt (its X was evaluated in a predecessor).
	kindRangeHead
	// kindSelect dispatches a select statement: one successor per
	// comm clause (in source order), plus the default clause's block
	// when present. Stmt is the *ast.SelectStmt.
	kindSelect
	// kindExit is the function's single normal exit block (every
	// return and the fall-off-the-end path reach it). It holds no
	// nodes.
	kindExit
)

// cfgBlock is one basic block.
type cfgBlock struct {
	index int
	kind  blockKind
	// nodes are the atomic statements and condition expressions
	// executed in order. Composite control statements never appear;
	// *ast.DeferStmt and *ast.ReturnStmt do (rules give them special
	// treatment).
	nodes []ast.Node
	// stmt is the governing statement for kindRangeHead/kindSelect.
	stmt  ast.Stmt
	succs []*cfgBlock
	preds []*cfgBlock
}

// addNode appends an atomic node to the block.
func (b *cfgBlock) addNode(n ast.Node) { b.nodes = append(b.nodes, n) }

// cfg is the control-flow graph of one function body.
type cfg struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock // the unique normal exit (kindExit)
}

// cfgBuilder carries the state of one lowering pass.
type cfgBuilder struct {
	g    *cfg
	cur  *cfgBlock
	info *types.Info

	// breakTo/continueTo are the innermost targets; labeled variants
	// live in labels.
	breakTo    *cfgBlock
	continueTo *cfgBlock
	labels     map[string]*labelTargets
	// gotoFixups are forward gotos awaiting their label's block.
	gotoFixups map[string][]*cfgBlock
	// labeledStmt is the label wrapper currently being lowered, so a
	// loop or switch can register its labeled break/continue targets.
	labeledStmt *ast.LabeledStmt
	// fallthroughTo is the next case body while lowering a switch
	// clause.
	fallthroughTo *cfgBlock
}

type labelTargets struct {
	breakTo    *cfgBlock
	continueTo *cfgBlock
	target     *cfgBlock // goto target / labeled statement entry
}

// buildCFG lowers body into a CFG. info resolves no-return callees
// (panic, os.Exit, …); it may be nil, in which case only the builtin
// panic terminates a block.
func buildCFG(body *ast.BlockStmt, info *types.Info) *cfg {
	g := &cfg{}
	b := &cfgBuilder{
		g:          g,
		info:       info,
		labels:     map[string]*labelTargets{},
		gotoFixups: map[string][]*cfgBlock{},
	}
	g.entry = b.newBlock(kindPlain)
	g.exit = &cfgBlock{kind: kindExit}
	b.cur = g.entry
	b.stmtList(body.List)
	// Falling off the end of the body is a return; rules see it as an
	// implicitReturn node so every exit path carries a return marker.
	if b.cur != nil {
		b.cur.addNode(&implicitReturn{at: body.End()})
	}
	b.jump(g.exit)
	g.exit.index = len(g.blocks)
	g.blocks = append(g.blocks, g.exit)
	return g
}

// newBlock appends a fresh block to the graph.
func (b *cfgBuilder) newBlock(kind blockKind) *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks), kind: kind}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// edge links from → to.
func (b *cfgBuilder) edge(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// jump terminates the current block with an unconditional edge and
// leaves the builder with no current block (the next statement starts
// an unreachable one unless a label re-anchors it).
func (b *cfgBuilder) jump(to *cfgBlock) {
	if b.cur != nil {
		b.edge(b.cur, to)
	}
	b.cur = nil
}

// startBlock makes blk current, creating a fall-through edge from the
// previous current block when one is live.
func (b *cfgBuilder) startBlock(blk *cfgBlock) {
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
}

// ensure returns the current block, materializing an unreachable one
// after a jump so lowering can continue (dead code draws no edges from
// entry and the solver never visits it).
func (b *cfgBuilder) ensure() *cfgBlock {
	if b.cur == nil {
		b.cur = b.newBlock(kindPlain)
	}
	return b.cur
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt lowers one statement.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.ensure().addNode(s.Init)
		}
		head := b.ensure()
		head.addNode(s.Cond)
		then := b.newBlock(kindPlain)
		after := b.newBlock(kindPlain)
		b.edge(head, then) // succs[0] = true
		b.cur = then
		b.stmt(s.Body)
		b.jump(after)
		if s.Else != nil {
			els := b.newBlock(kindPlain)
			b.edge(head, els) // succs[1] = false
			b.cur = els
			b.stmt(s.Else)
			b.jump(after)
		} else {
			b.edge(head, after) // succs[1] = false
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.ensure().addNode(s.Init)
		}
		head := b.newBlock(kindPlain)
		b.startBlock(head)
		body := b.newBlock(kindPlain)
		after := b.newBlock(kindPlain)
		post := head
		if s.Post != nil {
			post = b.newBlock(kindPlain)
			post.addNode(s.Post)
			b.edge(post, head)
		}
		if s.Cond != nil {
			head.addNode(s.Cond)
			b.edge(head, body)  // true
			b.edge(head, after) // false
		} else {
			b.edge(head, body)
		}
		b.loopBody(s, body, after, post)
		b.jump(post)
		b.cur = after

	case *ast.RangeStmt:
		// X is evaluated once, before iteration begins.
		b.ensure().addNode(s.X)
		head := b.newBlock(kindRangeHead)
		head.stmt = s
		b.startBlock(head)
		body := b.newBlock(kindPlain)
		after := b.newBlock(kindPlain)
		b.edge(head, body)  // another iteration
		b.edge(head, after) // exhausted
		b.loopBody(s, body, after, head)
		b.jump(head)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.ensure().addNode(s.Init)
		}
		if s.Tag != nil {
			b.ensure().addNode(s.Tag)
		}
		b.caseDispatch(s, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.ensure().addNode(s.Init)
		}
		b.ensure().addNode(s.Assign)
		b.caseDispatch(s, s.Body.List, nil)

	case *ast.SelectStmt:
		head := b.ensure()
		head.kind = kindSelect
		head.stmt = s
		after := b.newBlock(kindPlain)
		savedBreak := b.breakTo
		b.breakTo = after
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock(kindPlain)
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				blk.addNode(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(after)
		}
		b.breakTo = savedBreak
		// select{} blocks forever: head keeps zero successors and
		// after stays unreachable, which is exactly right.
		b.cur = after

	case *ast.ReturnStmt:
		b.ensure().addNode(s)
		b.jump(b.g.exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		lt := b.label(s.Label.Name)
		target := b.newBlock(kindPlain)
		lt.target = target
		for _, from := range b.gotoFixups[s.Label.Name] {
			b.edge(from, target)
		}
		delete(b.gotoFixups, s.Label.Name)
		b.startBlock(target)
		// Loop/switch statements consult labels for their own
		// break/continue targets via labeledLoop.
		b.labeledStmt = s
		b.stmt(s.Stmt)
		b.labeledStmt = nil

	case *ast.ExprStmt:
		b.ensure().addNode(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.noReturn(call) {
			b.cur = nil // panic/os.Exit: control does not continue
		}

	case *ast.DeferStmt, *ast.GoStmt, *ast.SendStmt, *ast.IncDecStmt,
		*ast.AssignStmt, *ast.DeclStmt, *ast.EmptyStmt:
		b.ensure().addNode(s)

	default:
		// Anything unanticipated flows through as an atomic node.
		b.ensure().addNode(s)
	}
}

// loopBody lowers a loop's body with break/continue targets installed,
// honoring a wrapping label.
func (b *cfgBuilder) loopBody(loop ast.Stmt, body, after, cont *cfgBlock) {
	savedBreak, savedCont := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = after, cont
	if ls := b.labeledStmt; ls != nil && ls.Stmt == loop {
		lt := b.label(ls.Label.Name)
		lt.breakTo, lt.continueTo = after, cont
	}
	b.labeledStmt = nil
	b.cur = body
	switch s := loop.(type) {
	case *ast.ForStmt:
		b.stmt(s.Body)
	case *ast.RangeStmt:
		b.stmt(s.Body)
	}
	b.breakTo, b.continueTo = savedBreak, savedCont
}

// caseDispatch lowers a (type) switch: the head fans out to each case
// clause; a missing default adds a direct edge to after. Fallthrough
// chains case bodies.
func (b *cfgBuilder) caseDispatch(sw ast.Stmt, clauses []ast.Stmt, _ *cfgBlock) {
	head := b.ensure()
	after := b.newBlock(kindPlain)
	savedBreak := b.breakTo
	b.breakTo = after
	if ls := b.labeledStmt; ls != nil && ls.Stmt == sw {
		b.label(ls.Label.Name).breakTo = after
	}
	b.labeledStmt = nil

	bodies := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		blk := b.newBlock(kindPlain)
		bodies[i] = blk
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, blk)
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.cur = bodies[i]
		for _, e := range cc.List {
			bodies[i].addNode(e)
		}
		b.fallthroughTo = nil
		if i+1 < len(bodies) {
			b.fallthroughTo = bodies[i+1]
		}
		b.stmtList(cc.Body)
		b.fallthroughTo = nil
		b.jump(after)
	}
	b.breakTo = savedBreak
	b.cur = after
}

// branch lowers break/continue/goto/fallthrough.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		to := b.breakTo
		if s.Label != nil {
			to = b.label(s.Label.Name).breakTo
		}
		b.jump(to)
	case "continue":
		to := b.continueTo
		if s.Label != nil {
			to = b.label(s.Label.Name).continueTo
		}
		b.jump(to)
	case "goto":
		lt := b.label(s.Label.Name)
		if lt.target != nil {
			b.jump(lt.target)
		} else {
			// Forward goto: record for the label's lowering.
			if b.cur != nil {
				b.gotoFixups[s.Label.Name] = append(b.gotoFixups[s.Label.Name], b.cur)
			}
			b.cur = nil
		}
	case "fallthrough":
		b.jump(b.fallthroughTo)
	}
}

func (b *cfgBuilder) label(name string) *labelTargets {
	lt := b.labels[name]
	if lt == nil {
		lt = &labelTargets{}
		b.labels[name] = lt
	}
	return lt
}

// noReturn reports whether a call never returns: the builtin panic,
// os.Exit, runtime.Goexit, and the log.Fatal family.
func (b *cfgBuilder) noReturn(call *ast.CallExpr) bool {
	if b.info == nil {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			return id.Name == "panic"
		}
		return false
	}
	if calleeBuiltin(b.info, call) == "panic" {
		return true
	}
	fn := calleeFunc(b.info, call)
	if fn == nil {
		return false
	}
	switch pkgPathOf(fn) {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		switch fn.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	}
	return false
}

// reachable returns the blocks reachable from entry in reverse
// post-order — the iteration order the worklist solver seeds.
func (g *cfg) reachable() []*cfgBlock {
	seen := make([]bool, len(g.blocks))
	var order []*cfgBlock
	var dfs func(*cfgBlock)
	dfs = func(b *cfgBlock) {
		seen[b.index] = true
		for _, s := range b.succs {
			if !seen[s.index] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(g.entry)
	// reverse for RPO
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
