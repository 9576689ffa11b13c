// A small forward worklist dataflow solver over the CFGs built in
// cfg.go. Rules supply a flowRule describing their lattice and
// transfer function; the solver iterates to a fixpoint and then runs
// one reporting pass with converged block-entry facts, so diagnostics
// are emitted exactly once per program point regardless of how many
// times the worklist revisited a block.
package analysis

// flowFact is an opaque lattice element. Facts must be treated as
// immutable by Transfer: return a new value instead of mutating,
// because a block's entry fact is joined from (and aliased by) its
// predecessors' exit facts.
type flowFact interface{}

// flowRule is one forward dataflow problem over a single function.
type flowRule interface {
	// Entry is the fact at function entry.
	Entry() flowFact
	// Join combines two facts at a control-flow merge.
	Join(a, b flowFact) flowFact
	// Equal reports fact equality; the solver stops when every
	// block's entry fact is stable under Equal.
	Equal(a, b flowFact) bool
	// Transfer flows a fact through one block. report is non-nil only
	// during the final reporting pass; during fixpoint iteration it
	// is nil and implementations must not emit diagnostics.
	Transfer(b *cfgBlock, in flowFact, report bool) flowFact
}

// solveFlow runs rule to fixpoint over g and then performs the
// reporting pass. It returns the converged fact at the exit block's
// entry (the join over all return paths), which rules use for
// end-of-function checks ("lock still held", "acquisition leaked").
func solveFlow(g *cfg, rule flowRule) flowFact {
	blocks := g.reachable()
	in := make([]flowFact, len(g.blocks))
	have := make([]bool, len(g.blocks))
	in[g.entry.index] = rule.Entry()
	have[g.entry.index] = true

	// Worklist seeded in reverse post-order: loop-free code converges
	// in one sweep, loops in a handful.
	inList := make([]bool, len(g.blocks))
	var list []*cfgBlock
	for _, b := range blocks {
		list = append(list, b)
		inList[b.index] = true
	}
	for len(list) > 0 {
		b := list[0]
		list = list[1:]
		inList[b.index] = false
		if !have[b.index] {
			continue // no predecessor has produced a fact yet
		}
		out := rule.Transfer(b, in[b.index], false)
		for _, s := range b.succs {
			if !have[s.index] {
				in[s.index] = out
				have[s.index] = true
			} else {
				joined := rule.Join(in[s.index], out)
				if rule.Equal(joined, in[s.index]) {
					continue
				}
				in[s.index] = joined
			}
			if !inList[s.index] {
				list = append(list, s)
				inList[s.index] = true
			}
		}
	}

	// Reporting pass: converged entry facts, diagnostics enabled.
	for _, b := range blocks {
		if have[b.index] {
			rule.Transfer(b, in[b.index], true)
		}
	}
	if have[g.exit.index] {
		return in[g.exit.index]
	}
	// Function cannot fall off the end (infinite loop, panics on all
	// paths): there is no exit fact.
	return nil
}
