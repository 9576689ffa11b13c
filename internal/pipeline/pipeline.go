// Package pipeline is the timing-approximate performance model of §V:
// an in-order pipeline charging first-order latency sources — the
// two-level TLB hierarchy with page walks, the L1/L2/L3/DRAM cache
// stack, and a hashed-perceptron branch unit with BTB and indirect
// predictor (20-cycle misprediction penalty). IPC from this model
// drives the paper's speedup figures (Figures 8 and 10).
package pipeline

import (
	"fmt"

	"github.com/chirplab/chirp/internal/branch"
	"github.com/chirplab/chirp/internal/mem"
	"github.com/chirplab/chirp/internal/paging"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
)

// Config parameterises one timing run.
type Config struct {
	// Mem is the cache stack (Table II defaults).
	Mem mem.HierarchyConfig
	// L1ITLB, L1DTLB, L2TLB are the TLB geometries (Table II defaults).
	L1ITLB, L1DTLB, L2TLB tlb.Config
	// L2TLBHitLatency is charged when an L1 TLB miss hits the L2 TLB
	// (8 cycles in Table II).
	L2TLBHitLatency uint64
	// WalkPenalty is the flat L2-TLB-miss penalty (Table II: 20–360
	// swept; 150 for the headline speedup). Ignored when UseRadixWalker
	// is set.
	WalkPenalty uint64
	// UseRadixWalker replaces the flat penalty with real 4-level walks
	// through the cache hierarchy (extension X2).
	UseRadixWalker bool
	// PSC sizes the radix walker's paging-structure caches.
	PSC paging.PSCConfig
	// MispredictPenalty is the front-end redirect cost (Table II: 20).
	MispredictPenalty uint64
	// ModelWrongPath, when set, charges mispredictions with wrong-path
	// instruction fetches that pollute the L1 i-cache (page walks for
	// wrong-path fetches are assumed squashed before they complete, so
	// the TLBs and prediction tables stay clean — §VI-E: CHiRP "only
	// updates the tables of counters at commit with right-path
	// branches").
	ModelWrongPath bool
	// Alloc selects the physical allocator.
	Alloc paging.AllocPolicy
	// Instructions bounds the run (0 = drain the source).
	Instructions uint64
	// WarmupFraction of instructions warms all structures before IPC
	// and MPKI measurement begin (the paper warms on the first half).
	WarmupFraction float64
}

// DefaultConfig returns the Table II machine with the given
// instruction budget and page-walk penalty.
func DefaultConfig(instructions, walkPenalty uint64) Config {
	return Config{
		Mem:               mem.DefaultHierarchyConfig(),
		L1ITLB:            tlb.Config{Name: "L1 iTLB", Entries: 64, Ways: 8, PageShift: 12},
		L1DTLB:            tlb.Config{Name: "L1 dTLB", Entries: 64, Ways: 8, PageShift: 12},
		L2TLB:             tlb.Config{Name: "L2 TLB", Entries: 1024, Ways: 8, PageShift: 12},
		L2TLBHitLatency:   8,
		WalkPenalty:       walkPenalty,
		MispredictPenalty: 20,
		Instructions:      instructions,
		WarmupFraction:    0.5,
	}
}

// Result reports one timing run.
type Result struct {
	Policy       string
	Instructions uint64 // measured (post-warmup)
	Cycles       uint64 // measured (post-warmup)
	IPC          float64
	L2TLBMisses  uint64 // post-warmup
	MPKI         float64
	L2TLBStats   tlb.Stats // whole run
	Efficiency   float64

	BranchAccuracy float64
	BTBHitRatio    float64
	IndirectHit    float64
	PageWalks      uint64
	AvgWalkCycles  float64
	PageFaults     uint64
	DRAMAccesses   uint64
}

// Machine is one assembled simulated core; build with New (one L2 TLB
// policy) or NewMulti (several), drive with Run or RunMulti.
//
// A machine with several L2 TLB policies simulates them all in one
// pass over one trace. Generation, the L1 TLBs, the frame lookup, the
// cache stack and the branch unit run once per record and are shared;
// each policy owns its L2 TLB, its walker and the cycles its
// translations cost. Sharing is exact under the fixed-penalty walker:
// the L1 TLBs are filled on every L1 miss whatever the L2 TLB did,
// frames are allocated at a page's first touch (a miss under every
// policy), and a walk touches no cache. None of that holds for the
// radix walker, whose PTE fetches go through the cache stack, so a
// radix machine takes exactly one policy.
type Machine struct {
	cfg   Config
	mem   *mem.Hierarchy
	l1i   *tlb.TLB
	l1d   *tlb.TLB
	lanes []lane
	obs   []tlb.BranchObserver // the lanes' policies that watch branches
	space *paging.Space
	pred  *branch.Perceptron
	btb   *branch.BTB
	ind   *branch.Indirect

	// l1a and l2a are translate's probe records. They live here rather
	// than on translate's stack because the policy interface calls
	// would move stack copies to the heap on every probe.
	l1a, l2a tlb.Access
}

// lane is one L2 TLB policy's private share of a machine.
type lane struct {
	l2     *tlb.TLB
	pol    tlb.Policy
	walker paging.Walker
	// cycles is the translation time charged to this policy alone: the
	// L2 TLB hit latency on every L1 miss plus its own walks.
	cycles uint64
	// warmCycles and warmMisses latch cycles and L2 misses at the end
	// of warmup.
	warmCycles, warmMisses uint64
}

// New assembles a machine around the injected L2 TLB policy. The L1
// TLBs always run LRU, matching the paper's setup.
func New(cfg Config, l2Policy tlb.Policy, l1Factory func() tlb.Policy) (*Machine, error) {
	return NewMulti(cfg, []tlb.Policy{l2Policy}, l1Factory)
}

// NewMulti assembles one machine that runs every policy in l2Policies
// as its L2 TLB policy in a single pass (see Machine). It rejects more
// than one policy under UseRadixWalker.
func NewMulti(cfg Config, l2Policies []tlb.Policy, l1Factory func() tlb.Policy) (*Machine, error) {
	if l1Factory == nil {
		return nil, fmt.Errorf("pipeline: nil L1 policy factory")
	}
	if len(l2Policies) == 0 {
		return nil, fmt.Errorf("pipeline: no L2 TLB policy")
	}
	if cfg.UseRadixWalker && len(l2Policies) > 1 {
		return nil, fmt.Errorf("pipeline: the radix walker's PTE fetches make the cache state policy-dependent; run one machine per policy (%d given)", len(l2Policies))
	}
	h, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	l1i, err := tlb.New(cfg.L1ITLB, l1Factory())
	if err != nil {
		return nil, err
	}
	l1d, err := tlb.New(cfg.L1DTLB, l1Factory())
	if err != nil {
		return nil, err
	}
	space := paging.NewSpace(cfg.Alloc, 1)
	m := &Machine{
		cfg: cfg, mem: h, l1i: l1i, l1d: l1d, space: space,
		lanes: make([]lane, len(l2Policies)),
		pred:  branch.NewPerceptron(branch.DefaultPerceptronConfig()),
		btb:   branch.NewBTB(4096, 4),
		ind:   branch.NewIndirect(4096),
	}
	for i, p := range l2Policies {
		l2, err := tlb.New(cfg.L2TLB, p)
		if err != nil {
			return nil, err
		}
		ln := &m.lanes[i]
		ln.l2, ln.pol = l2, p
		if cfg.UseRadixWalker {
			// PTE fetches enter the hierarchy at the unified L2 cache,
			// as hardware walkers do.
			ln.walker = paging.NewRadixWalker(space, h.L2, cfg.PSC)
		} else {
			ln.walker = paging.NewFixedWalker(space, cfg.WalkPenalty)
		}
		if bo, ok := p.(tlb.BranchObserver); ok {
			m.obs = append(m.obs, bo)
		}
	}
	return m, nil
}

// translate resolves va through the two-level TLB hierarchy and
// returns the physical address. An L1 miss probes (and on a miss
// fills) every lane's L2 TLB, charging each lane its own latency;
// all lanes agree on the frame, since frames belong to the shared
// address space.
func (m *Machine) translate(l1 *tlb.TLB, pc, va uint64, instr bool) (pa uint64) {
	shift := m.cfg.L2TLB.PageShift
	vpn := va >> shift
	m.l1a = tlb.Access{PC: pc, VPN: vpn, Instr: instr}
	if ppn, hit := l1.Lookup(&m.l1a); hit {
		return ppn<<shift | va&0xfff
	}
	var ppn uint64
	for i := range m.lanes {
		ln := &m.lanes[i]
		m.l2a = tlb.Access{PC: pc, VPN: vpn, Instr: instr}
		p, hit := ln.l2.Lookup(&m.l2a)
		ln.cycles += m.cfg.L2TLBHitLatency
		if !hit {
			var walkCycles uint64
			p, walkCycles = ln.walker.Walk(vpn)
			ln.cycles += walkCycles
			ln.l2.Insert(&m.l2a, p)
		}
		ppn = p
	}
	l1.Insert(&m.l1a, ppn)
	return ppn<<shift | va&0xfff
}

// Run drives src to completion (or the configured budget) and returns
// the post-warmup result of a one-policy machine.
func (m *Machine) Run(src trace.Source) (Result, error) {
	if len(m.lanes) != 1 {
		return Result{}, fmt.Errorf("pipeline: Run on a %d-policy machine; use RunMulti", len(m.lanes))
	}
	rs, err := m.RunMulti(src)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// RunMulti drives src to completion (or the configured budget) and
// returns one post-warmup result per L2 TLB policy, in the order the
// machine was built with.
func (m *Machine) RunMulti(src trace.Source) ([]Result, error) {
	var (
		instructions uint64
		cycles       uint64 // shared by every lane; lanes add their own
		rec          trace.Record

		warmupAt  = uint64(float64(m.cfg.Instructions) * m.cfg.WarmupFraction)
		warmed    = warmupAt == 0
		warmInstr uint64
		warmCyc   uint64
	)
	l1iLat := m.cfg.Mem.L1I.LatencyCycles
	l1dLat := m.cfg.Mem.L1D.LatencyCycles

	for src.Next(&rec) {
		instructions += rec.Instructions()
		cycles += uint64(rec.Skip) + 1 // base CPI of 1

		if !warmed && instructions >= warmupAt {
			warmed = true
			warmInstr, warmCyc = instructions, cycles
			for i := range m.lanes {
				ln := &m.lanes[i]
				ln.warmCycles, ln.warmMisses = ln.cycles, ln.l2.Stats().Misses
			}
		}

		// Fetch: translation plus i-cache beyond the pipelined L1 hit.
		pa := m.translate(m.l1i, rec.PC, rec.PC, true)
		if fl := m.mem.FetchLatency(pa); fl > l1iLat {
			cycles += fl - l1iLat
		}

		switch {
		case rec.Class.IsMemory():
			pa := m.translate(m.l1d, rec.PC, rec.EA, false)
			if dl := m.mem.DataLatency(pa, rec.Class == trace.ClassStore); dl > l1dLat {
				cycles += dl - l1dLat
			}
		case rec.Class == trace.ClassCondBranch:
			m.pred.Predict(rec.PC) // latches state consumed by Train
			target, btbHit := m.btb.Lookup(rec.PC)
			correct := m.pred.Train(rec.Taken)
			// A taken branch also needs the right target from the BTB.
			if !correct || (rec.Taken && (!btbHit || target != rec.Target)) {
				cycles += m.cfg.MispredictPenalty
				if m.cfg.ModelWrongPath {
					m.fetchWrongPath(rec.PC, rec.Target, rec.Taken)
				}
			}
			if rec.Taken {
				m.btb.Update(rec.PC, rec.Target)
			}
			for _, bo := range m.obs {
				bo.OnBranch(rec.PC, true, false, rec.Taken, rec.Target)
			}
		case rec.Class == trace.ClassUncondDirect:
			target, btbHit := m.btb.Lookup(rec.PC)
			if !btbHit || target != rec.Target {
				cycles += m.cfg.MispredictPenalty
			}
			m.btb.Update(rec.PC, rec.Target)
			for _, bo := range m.obs {
				bo.OnBranch(rec.PC, false, false, true, rec.Target)
			}
		case rec.Class == trace.ClassUncondIndirect:
			target, hit := m.ind.Predict(rec.PC)
			if !hit || target != rec.Target {
				cycles += m.cfg.MispredictPenalty
			}
			m.ind.Update(rec.PC, rec.Target)
			for _, bo := range m.obs {
				bo.OnBranch(rec.PC, false, true, true, rec.Target)
			}
		}

		if m.cfg.Instructions > 0 && instructions >= m.cfg.Instructions {
			break
		}
	}
	if !warmed {
		return nil, fmt.Errorf("pipeline: trace ended before warmup (%d < %d instructions)", instructions, warmupAt)
	}

	rs := make([]Result, len(m.lanes))
	for i := range m.lanes {
		ln := &m.lanes[i]
		ln.l2.FlushAccounting()
		st := ln.l2.Stats()
		res := Result{
			Policy:         ln.pol.Name(),
			Instructions:   instructions - warmInstr,
			Cycles:         cycles + ln.cycles - (warmCyc + ln.warmCycles),
			L2TLBMisses:    st.Misses - ln.warmMisses,
			L2TLBStats:     st,
			Efficiency:     st.Efficiency(),
			BranchAccuracy: m.pred.Accuracy(),
			BTBHitRatio:    m.btb.HitRatio(),
			IndirectHit:    m.ind.HitRatio(),
			PageFaults:     m.space.PageFaults(),
			DRAMAccesses:   m.mem.DRAM.Accesses(),
		}
		if res.Cycles > 0 {
			res.IPC = float64(res.Instructions) / float64(res.Cycles)
		}
		if res.Instructions > 0 {
			res.MPKI = float64(res.L2TLBMisses) / (float64(res.Instructions) / 1000)
		}
		switch w := ln.walker.(type) {
		case *paging.FixedWalker:
			res.PageWalks = w.Walks()
			res.AvgWalkCycles = float64(m.cfg.WalkPenalty)
		case *paging.RadixWalker:
			walks, _, _, _ := w.Stats()
			res.PageWalks = walks
			res.AvgWalkCycles = w.AverageLatency()
		}
		rs[i] = res
	}
	return rs, nil
}

// fetchWrongPath models the fetches issued down the wrong path before
// a misprediction resolves: a handful of straight-line lines from the
// not-taken (or wrongly predicted) target enter the L1 i-cache. The
// lines come from code the program does execute elsewhere, so the
// pollution is displacement, not garbage.
func (m *Machine) fetchWrongPath(pc, target uint64, taken bool) {
	wrong := target
	if taken {
		// The branch was taken but we went (or stayed) the wrong way:
		// fall-through fetches.
		wrong = pc + 4
	}
	const wrongPathLines = 5
	for i := uint64(0); i < wrongPathLines; i++ {
		// Virtual-address fetch without translation: wrong-path walks
		// squash, so charge only the i-cache pollution at the identity
		// frame (the cache is physically indexed on the same geometry).
		m.mem.L1I.Access(wrong+i*64, false)
	}
}

// Mem exposes the cache hierarchy (for reports and tests).
func (m *Machine) Mem() *mem.Hierarchy { return m.mem }
