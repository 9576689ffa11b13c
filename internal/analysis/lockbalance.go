package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockBalanceRule checks, per function, that every sync.Mutex/RWMutex
// Lock reaches its Unlock on all paths (directly or via defer), and
// that no lock is held across an operation that can block on other
// goroutines: channel send/receive, select without default, range
// over a channel, WaitGroup.Wait, or Cond.Wait. Locks are named by
// their receiver chain (s.mu), so distinct mutexes are tracked
// independently; functions that intentionally return holding a lock
// must carry a //chirp:allow lock-balance with the reason.
type LockBalanceRule struct{}

func (r *LockBalanceRule) Name() string { return "lock-balance" }

func (r *LockBalanceRule) Doc() string {
	return "mutex Lock must reach Unlock on all paths; no lock held across blocking channel/Wait operations"
}

// lockState distinguishes "held on every path here" from "held on
// some path only" — the latter is already a balance bug at any merge
// that reaches a return.
type lockState uint8

const (
	lockHeld lockState = iota + 1
	lockMixed
)

type lockEntry struct {
	state lockState
	pos   token.Pos // earliest Lock site, for the diagnostic
	read  bool      // RLock rather than Lock
}

// lockFact maps each named mutex to its hold state. Facts are
// copy-on-write: transfer clones before mutating.
type lockFact map[objKey]lockEntry

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// lockFlow is the per-function dataflow problem.
type lockFlow struct {
	m    *Module
	pkg  *Package
	fn   funcBody
	comm map[ast.Node]bool // select comm statements (head reports them)
	out  *[]Diagnostic
}

func (lf *lockFlow) Entry() flowFact { return lockFact(nil) }

func (lf *lockFlow) Join(a, b flowFact) flowFact {
	fa, fb := a.(lockFact), b.(lockFact)
	out := make(lockFact, len(fa)+len(fb))
	for k, va := range fa {
		if vb, ok := fb[k]; ok {
			e := va
			if vb.state != va.state {
				e.state = lockMixed
			}
			if vb.pos < e.pos {
				e.pos = vb.pos
			}
			out[k] = e
		} else {
			va.state = lockMixed
			out[k] = va
		}
	}
	for k, vb := range fb {
		if _, ok := fa[k]; !ok {
			vb.state = lockMixed
			out[k] = vb
		}
	}
	return out
}

func (lf *lockFlow) Equal(a, b flowFact) bool {
	fa, fb := a.(lockFact), b.(lockFact)
	if len(fa) != len(fb) {
		return false
	}
	for k, va := range fa {
		if vb, ok := fb[k]; !ok || va != vb {
			return false
		}
	}
	return true
}

func (lf *lockFlow) report(pos token.Pos, format string, args ...interface{}) {
	*lf.out = append(*lf.out, Diagnostic{
		Pos:     lf.m.Fset.Position(pos),
		Rule:    "lock-balance",
		Message: fmt.Sprintf(format, args...),
	})
}

// lockName renders a lock key for diagnostics, stripping the internal
// read-mode marker.
func lockName(k objKey, read bool) string {
	path := strings.TrimSuffix(k.path, "#r")
	if read {
		return path + " (read lock)"
	}
	return path
}

func (lf *lockFlow) Transfer(b *cfgBlock, in flowFact, report bool) flowFact {
	fact := in.(lockFact)
	info := lf.pkg.Info

	// blockedOn reports every held lock at a blocking operation.
	blockedOn := func(pos token.Pos, what string) {
		if !report {
			return
		}
		for k, e := range fact {
			lf.report(pos, "%s is held across %s; release the lock first", lockName(k, e.read), what)
		}
	}

	if b.kind == kindRangeHead && len(fact) > 0 {
		if rs, ok := b.stmt.(*ast.RangeStmt); ok {
			if tv, ok := info.Types[rs.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					blockedOn(rs.Pos(), "a range over a channel")
				}
			}
		}
	}

	for _, n := range b.nodes {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred unlock releases the lock for everything that
			// runs after the defer statement (sound for the code
			// below it; returns *before* the defer still see it held).
			fact = lf.applyUnlocks(fact, n.Call)
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(x ast.Node) bool {
					if call, ok := x.(*ast.CallExpr); ok {
						fact = lf.applyUnlocks(fact, call)
					}
					return true
				})
			}
			continue
		case *ast.ReturnStmt:
			if report {
				for k, e := range fact {
					lf.report(n.Pos(), "return while %s is still held (locked at line %d); unlock on every path or defer the unlock",
						lockName(k, e.read), lf.m.Fset.Position(e.pos).Line)
				}
			}
			continue
		case *implicitReturn:
			if report {
				for k, e := range fact {
					lf.report(n.Pos(), "function ends while %s is still held (locked at line %d); unlock on every path or defer the unlock",
						lockName(k, e.read), lf.m.Fset.Position(e.pos).Line)
				}
			}
			continue
		}

		inspectNode(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.CallExpr:
				if recv, method, ok := syncMethod(info, x, "Mutex", "RWMutex"); ok {
					if k, kok := flattenKey(info, recv); kok {
						switch method {
						case "Lock", "RLock":
							read := method == "RLock"
							kk := k
							if read {
								kk.path += "#r"
							}
							fact = fact.clone()
							fact[kk] = lockEntry{state: lockHeld, pos: x.Pos(), read: read}
						case "Unlock", "RUnlock":
							kk := k
							if method == "RUnlock" {
								kk.path += "#r"
							}
							if _, held := fact[kk]; held {
								fact = fact.clone()
								delete(fact, kk)
							}
						}
					}
					return true
				}
				if _, method, ok := syncMethod(info, x, "WaitGroup", "Cond"); ok && method == "Wait" && len(fact) > 0 {
					blockedOn(x.Pos(), "sync."+method+" (WaitGroup/Cond)")
				}
			case *ast.SendStmt:
				if !lf.comm[x] && len(fact) > 0 {
					blockedOn(x.Pos(), "a channel send")
				}
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && len(fact) > 0 && !lf.insideComm(n) {
					blockedOn(x.Pos(), "a channel receive")
				}
			}
			return true
		})
	}

	// The select dispatch sits at the end of its head block, so the
	// blocking check runs after any Lock earlier in the same block.
	if b.kind == kindSelect {
		if sel, ok := b.stmt.(*ast.SelectStmt); ok && len(fact) > 0 {
			hasDefault := false
			for _, cl := range sel.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				blockedOn(sel.Pos(), "a select with no default")
			}
		}
	}
	return fact
}

// insideComm reports whether the CFG node is a select comm statement
// (the select head already reported the blocking point).
func (lf *lockFlow) insideComm(n ast.Node) bool { return lf.comm[n] }

// applyUnlocks deletes every lock that call releases (direct
// mu.Unlock / mu.RUnlock calls only).
func (lf *lockFlow) applyUnlocks(fact lockFact, call *ast.CallExpr) lockFact {
	recv, method, ok := syncMethod(lf.pkg.Info, call, "Mutex", "RWMutex")
	if !ok || (method != "Unlock" && method != "RUnlock") {
		return fact
	}
	k, kok := flattenKey(lf.pkg.Info, recv)
	if !kok {
		return fact
	}
	if method == "RUnlock" {
		k.path += "#r"
	}
	if _, held := fact[k]; held {
		fact = fact.clone()
		delete(fact, k)
	}
	return fact
}

// Check runs the lock dataflow over every function body in the module.
func (r *LockBalanceRule) Check(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, fb := range moduleFuncBodies(m) {
		// Cheap gate: skip bodies that never call Lock/RLock.
		locks := false
		ast.Inspect(fb.body, func(n ast.Node) bool {
			if locks {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if _, method, ok := syncMethod(fb.pkg.Info, call, "Mutex", "RWMutex"); ok && (method == "Lock" || method == "RLock") {
					locks = true
				}
			}
			return !locks
		})
		if !locks {
			continue
		}
		lf := &lockFlow{m: m, pkg: fb.pkg, fn: fb, comm: map[ast.Node]bool{}, out: &out}
		ast.Inspect(fb.body, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CommClause); ok && cc.Comm != nil {
				lf.comm[cc.Comm] = true
			}
			return true
		})
		g := buildCFG(fb.body, fb.pkg.Info)
		solveFlow(g, lf)
	}
	return out
}
