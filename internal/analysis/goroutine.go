package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineRule enforces three pieces of goroutine discipline:
//
//  1. wg.Add precedes the go statement on every path: a goroutine
//     whose function literal calls wg.Done must be dominated by a
//     wg.Add on the same WaitGroup (a wg.Wait consumes the Adds, so
//     respawning after Wait needs a fresh Add). Checked by a forward
//     must-analysis; only WaitGroups declared in the same function are
//     checked — captured or package-level WaitGroups may be Added
//     elsewhere.
//  2. wg.Done on all paths of the spawned function: if a go'd function
//     literal calls wg.Done anywhere, every return path must reach a
//     Done (a defer wg.Done() at the top satisfies all of them, panic
//     paths included).
//  3. go statements whose function literal references a loop variable
//     of an enclosing for/range are flagged: Go 1.22 made the capture
//     per-iteration, but the repo pins explicit rebinding so the code
//     reads the same under every toolchain and under copy-paste into
//     older modules.
type GoroutineRule struct{}

func (r *GoroutineRule) Name() string { return "goroutine-discipline" }

func (r *GoroutineRule) Doc() string {
	return "wg.Add must dominate the go it covers; wg.Done on all paths of the goroutine; no loop-variable capture in go literals"
}

// wgCall matches a WaitGroup method call and returns its key.
func wgCall(info *types.Info, call *ast.CallExpr) (objKey, string, bool) {
	recv, method, ok := syncMethod(info, call, "WaitGroup")
	if !ok {
		return objKey{}, "", false
	}
	k, kok := flattenKey(info, recv)
	if !kok {
		return objKey{}, "", false
	}
	return k, method, true
}

// doneKeys collects the WaitGroup keys a goroutine body calls Done on,
// at statement level (nested function literals excluded, except the
// bodies of directly deferred literals, which run on this goroutine).
func doneKeys(info *types.Info, body *ast.BlockStmt) map[objKey]bool {
	keys := map[objKey]bool{}
	var scanCall func(n ast.Node)
	scanCall = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			if _, isLit := x.(*ast.FuncLit); isLit {
				return false
			}
			if d, ok := x.(*ast.DeferStmt); ok {
				if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
					scanCall(lit.Body)
				}
			}
			if call, ok := x.(*ast.CallExpr); ok {
				if k, method, ok := wgCall(info, call); ok && method == "Done" {
					keys[k] = true
				}
			}
			return true
		})
	}
	scanCall(body)
	return keys
}

// wgSetFact is a must-set of WaitGroup keys (Added, or Done-executed,
// on every path). nil is the empty set.
type wgSetFact map[objKey]bool

func (f wgSetFact) clone() wgSetFact {
	out := make(wgSetFact, len(f))
	for k := range f {
		out[k] = true
	}
	return out
}

// wgFlowMode selects which of the two must-analyses a wgFlow runs.
type wgFlowMode uint8

const (
	modeAddDominates wgFlowMode = iota // fact: Add has run; checked at go statements
	modeDoneAllPaths                   // fact: Done has run; checked at returns
)

type wgFlow struct {
	m    *Module
	pkg  *Package
	mode wgFlowMode
	// local reports whether a key's WaitGroup is declared inside the
	// function under analysis (modeAddDominates only checks those).
	local func(objKey) bool
	// needed are the Done keys under modeDoneAllPaths.
	needed map[objKey]bool
	out    *[]Diagnostic
}

func (wf *wgFlow) Entry() flowFact { return wgSetFact(nil) }

// Join is set intersection: "on every path".
func (wf *wgFlow) Join(a, b flowFact) flowFact {
	fa, fb := a.(wgSetFact), b.(wgSetFact)
	out := make(wgSetFact)
	for k := range fa {
		if fb[k] {
			out[k] = true
		}
	}
	return out
}

func (wf *wgFlow) Equal(a, b flowFact) bool {
	fa, fb := a.(wgSetFact), b.(wgSetFact)
	if len(fa) != len(fb) {
		return false
	}
	for k := range fa {
		if !fb[k] {
			return false
		}
	}
	return true
}

func (wf *wgFlow) report(pos token.Pos, format string, args ...interface{}) {
	*wf.out = append(*wf.out, Diagnostic{
		Pos:     wf.m.Fset.Position(pos),
		Rule:    "goroutine-discipline",
		Message: fmt.Sprintf(format, args...),
	})
}

func (wf *wgFlow) Transfer(b *cfgBlock, in flowFact, report bool) flowFact {
	fact := in.(wgSetFact)
	info := wf.pkg.Info

	add := func(k objKey) {
		if !fact[k] {
			fact = fact.clone()
			fact[k] = true
		}
	}
	drop := func(k objKey) {
		if fact[k] {
			fact = fact.clone()
			delete(fact, k)
		}
	}

	for _, n := range b.nodes {
		if d, ok := n.(*ast.DeferStmt); ok {
			// defer wg.Done() (directly or in a deferred literal)
			// counts as Done for everything downstream of the defer.
			if wf.mode == modeDoneAllPaths {
				if k, method, ok := wgCall(info, d.Call); ok && method == "Done" {
					add(k)
				}
				if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
					ast.Inspect(lit.Body, func(x ast.Node) bool {
						if call, ok := x.(*ast.CallExpr); ok {
							if k, method, ok := wgCall(info, call); ok && method == "Done" {
								add(k)
							}
						}
						return true
					})
				}
			}
			continue
		}

		if g, ok := n.(*ast.GoStmt); ok && wf.mode == modeAddDominates && report {
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				for k := range doneKeys(info, lit.Body) {
					if wf.local(k) && !fact[k] {
						wf.report(g.Pos(), "%s.Add does not precede this go statement on every path (the goroutine calls %s.Done)",
							k.path, k.path)
					}
				}
			}
		}

		inspectNode(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			k, method, ok := wgCall(info, call)
			if !ok {
				return true
			}
			switch wf.mode {
			case modeAddDominates:
				switch method {
				case "Add":
					add(k)
				case "Wait":
					// Wait consumes the Adds: a go after Wait needs a
					// fresh Add.
					drop(k)
				}
			case modeDoneAllPaths:
				if method == "Done" {
					add(k)
				}
			}
			return true
		})

		if wf.mode == modeDoneAllPaths && report {
			switch rn := n.(type) {
			case *ast.ReturnStmt:
				for k := range wf.needed {
					if !fact[k] {
						wf.report(rn.Pos(), "goroutine may return without %s.Done; call it on every path or defer it", k.path)
					}
				}
			case *implicitReturn:
				for k := range wf.needed {
					if !fact[k] {
						wf.report(rn.Pos(), "goroutine may end without %s.Done; call it on every path or defer it", k.path)
					}
				}
			}
		}
	}
	return fact
}

func (r *GoroutineRule) Check(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, fb := range moduleFuncBodies(m) {
		// Direct statements only: nested literals are their own
		// funcBody entries.
		var goStmts []*ast.GoStmt
		hasWG := false
		inspectNode(fb.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				goStmts = append(goStmts, n)
			case *ast.CallExpr:
				if _, _, ok := wgCall(fb.pkg.Info, n); ok {
					hasWG = true
				}
			}
			return true
		})

		// (3) loop-variable capture, checked per direct loop.
		r.checkLoopCapture(m, fb, &out)

		if len(goStmts) == 0 {
			continue
		}

		// (2) Done on all paths of each spawned literal.
		for _, g := range goStmts {
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				continue
			}
			needed := doneKeys(fb.pkg.Info, lit.Body)
			if len(needed) == 0 {
				continue
			}
			wf := &wgFlow{m: m, pkg: fb.pkg, mode: modeDoneAllPaths, needed: needed, out: &out}
			solveFlow(buildCFG(lit.Body, fb.pkg.Info), wf)
		}

		// (1) Add dominates each go statement — but only for
		// WaitGroups declared inside this body. A WaitGroup reaching
		// the function as a parameter, receiver field, or capture may
		// legitimately be Added elsewhere.
		if !hasWG {
			continue
		}
		body := fb.body
		local := func(k objKey) bool {
			return k.root != nil && k.root.Pos() > body.Pos() && k.root.Pos() < body.End()
		}
		wf := &wgFlow{m: m, pkg: fb.pkg, mode: modeAddDominates, local: local, out: &out}
		solveFlow(buildCFG(fb.body, fb.pkg.Info), wf)
	}
	return out
}

// checkLoopCapture flags go statements whose function literal
// references a loop variable of a directly enclosing for/range.
func (r *GoroutineRule) checkLoopCapture(m *Module, fb funcBody, out *[]Diagnostic) {
	info := fb.pkg.Info
	inspectNode(fb.body, func(n ast.Node) bool {
		var loopVars []types.Object
		var body *ast.BlockStmt
		addVar := func(e ast.Expr) {
			if id, ok := e.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					loopVars = append(loopVars, obj)
				}
			}
		}
		switch loop := n.(type) {
		case *ast.ForStmt:
			if init, ok := loop.Init.(*ast.AssignStmt); ok {
				for _, l := range init.Lhs {
					addVar(l)
				}
			}
			body = loop.Body
		case *ast.RangeStmt:
			if loop.Key != nil {
				addVar(loop.Key)
			}
			if loop.Value != nil {
				addVar(loop.Value)
			}
			body = loop.Body
		default:
			return true
		}
		if len(loopVars) == 0 {
			return true
		}
		// Any go statement under this loop — including inside nested
		// literals — whose literal captures one of the loop variables.
		ast.Inspect(body, func(x ast.Node) bool {
			g, ok := x.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			for _, obj := range loopVars {
				if usesObject(info, lit.Body, map[types.Object]bool{obj: true}) {
					*out = append(*out, Diagnostic{
						Pos:  m.Fset.Position(g.Pos()),
						Rule: "goroutine-discipline",
						Message: fmt.Sprintf("goroutine literal captures loop variable %s; rebind it (%s := %s) before the go statement",
							obj.Name(), obj.Name(), obj.Name()),
					})
				}
			}
			return true
		})
		return true
	})
}
