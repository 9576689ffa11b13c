package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
)

// ReplayMulti drives all N policies over a captured stream's derived
// views, all obtained by one Stream.Derive before the fan-out: the
// dense access sequence (PC/VPN/set-index arrays plus the precomputed
// stride-prefetch fill schedule) for the geometry and prefetch
// distance, which every policy walks independently, and the signature
// sequences predictive policies consume (tlb.SignatureFed), so no
// policy maintains history registers at replay time. Policies are
// partitioned across min(N, GOMAXPROCS) goroutines sharing the
// read-only views.
// Results are bit-identical to calling RunTLBOnly once per policy over
// the captured trace, in the same order as policies.
//
// The equivalence argument: the captured event sequence is fixed and
// policy state lives entirely inside each policy's own TLB, so each
// policy's callback sequence — Lookup, Insert, prefetch fills, warmup
// latch, in access order — is exactly the direct run's. What the
// direct run derives per access (set indices, stride-prefetch
// decisions, CHiRP/GHRP signatures) is a pure function of the stream,
// computed once by the derived views through the same code the live
// policies run; branch events matter only through those signatures, so
// fed policies never walk them. A branch observer outside the
// signature-fed families (CHiRP, GHRP) cannot be replayed this way:
// ReplayMulti rejects it, and Run/RunMulti send it to RunTLBOnly.
func ReplayMulti(stream *l2stream.Stream, policies []tlb.Policy, cfg TLBOnlyConfig) ([]TLBOnlyResult, error) {
	return replayMulti(stream, policies, cfg, runtime.GOMAXPROCS(0))
}

// replayMulti is ReplayMulti with an explicit worker count, so tests
// can force the parallel schedule on any host.
func replayMulti(stream *l2stream.Stream, policies []tlb.Policy, cfg TLBOnlyConfig, workers int) ([]TLBOnlyResult, error) {
	if len(policies) == 0 {
		return nil, errors.New("sim: ReplayMulti needs at least one policy")
	}
	if got, want := stream.Config(), CaptureConfig(cfg); got != want {
		return nil, fmt.Errorf("sim: stream captured under %+v cannot replay %+v", got, want)
	}
	for _, p := range policies {
		if !replayable(p) {
			return nil, fmt.Errorf("sim: ReplayMulti cannot replay %s: it observes branches but is not signature-fed (run it with RunTLBOnly)", p.Name())
		}
	}
	if !stream.Warmed() {
		// The same failure RunTLBOnly reports for a too-short trace.
		return nil, fmt.Errorf("sim: trace ended before warmup boundary (%d < %d instructions)", stream.Instructions(), stream.WarmupAt())
	}
	specs, sigAt := viewSpecs(cfg, policies)
	views, err := stream.Derive(specs...)
	if err != nil {
		return nil, err
	}
	rv := views[0].(*replayView)

	out := make([]TLBOnlyResult, len(policies))
	errs := make([]error, len(policies))
	runPolicies(workers, len(policies), func(j int) {
		out[j], errs[j] = replayOne(stream, rv, views[sigAt[j]], policies[j], cfg)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayable reports whether ReplayMulti can drive p: any policy that
// ignores branches, plus the two signature-fed branch observers.
func replayable(p tlb.Policy) bool {
	switch p.(type) {
	case *core.CHiRP, *policy.GHRP:
		return true
	}
	_, observes := p.(tlb.BranchObserver)
	return !observes
}

// runPolicies executes job(0..n-1), fanning across workers goroutines
// when more than one is requested. Jobs touch disjoint state, so the
// only synchronization is the shared work counter and the final join.
// A panicking worker stops pulling jobs; its panic value is re-raised
// on the caller's goroutine after the join, preserving the caller's
// recover semantics (suite.go's guard).
func runPolicies(workers, n int, job func(j int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for j := 0; j < n; j++ {
			job(j)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				j := int(next.Add(1))
				if j >= n {
					return
				}
				job(j)
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// replayOne replays a single policy over the shared derived views:
// CHiRP and GHRP run in external-signature mode against their
// precomputed sequence sigs, everything else walks the dense access
// view alone. The three walkers differ only in the signature feed;
// folding them into one walker with a per-walk switch on the feed made
// the CHiRP and GHRP walks measurably slower, so they stay separate.
func replayOne(stream *l2stream.Stream, rv *replayView, sigs any, p tlb.Policy, cfg TLBOnlyConfig) (TLBOnlyResult, error) {
	t, err := tlb.New(cfg.Hierarchy.L2, p)
	if err != nil {
		return TLBOnlyResult{}, err
	}
	w := denseWalker{t: t}
	switch pp := p.(type) {
	case *core.CHiRP:
		pp.BeginExternalSignatures()
		w.walkCHiRP(rv, pp, sigs.([]uint32))
	case *policy.GHRP:
		pp.BeginExternalSignatures()
		w.walkGHRP(rv, pp, sigs.([]uint64))
	default:
		w.walkPlain(rv)
	}
	return replayResult(stream, p, t, w.warm), nil
}

// denseWalker drives one policy's TLB over the dense replay view. The
// Access structs live in the struct: they escape into the policy
// interface calls, so loop-locals would heap-allocate per access.
//
// The walkers update a and pa with field writes rather than struct
// literals, skipping the per-access zeroing stores. That relies on two
// invariants: ASID stays at its zero value for the walk's lifetime
// (replay views are single-address-space), and the fields a walker
// does not write are either never read stale (pa.Set and pa.Prefetch
// are overwritten by InsertPrefetch before use) or never written by
// the TLB at all (a.Prefetch on the demand path).
type denseWalker struct {
	t     *tlb.TLB
	warm  tlb.Stats
	a, pa tlb.Access
}

// walkPlain replays the dense view into a policy with no signature
// feed: the demand walk plus Contains-gated prefetch fills, with the
// warm stats latched where the warmup marker sat.
//
//chirp:hotpath
func (w *denseWalker) walkPlain(v *replayView) {
	t := w.t
	pcs := v.pc
	// The reslices pin every column to len(pcs) so the loop indexes
	// without per-column bounds checks.
	vpns := v.vpn[:len(pcs)]
	sets := v.set[:len(pcs)]
	instrs := v.instr[:len(pcs)]
	pfOff, pfVPN := v.pfOff, v.pfVPN
	for i := range pcs {
		if i == v.warmIdx {
			w.warm = t.Stats()
		}
		instr := instrs[i] != 0
		vpn := vpns[i]
		w.a.PC = pcs[i]
		w.a.VPN = vpn
		w.a.Set = sets[i]
		w.a.Instr = instr
		if _, hit := t.LookupIndexed(&w.a); !hit {
			t.Insert(&w.a, vpn)
		}
		if pfOff != nil {
			for k := pfOff[i]; k < pfOff[i+1]; k++ {
				pv := pfVPN[k]
				if t.Contains(pv) {
					continue
				}
				w.pa.PC = pcs[i]
				w.pa.VPN = pv
				w.pa.Instr = instr
				t.InsertPrefetch(&w.pa, pv)
			}
		}
	}
	if v.warmIdx == len(pcs) {
		w.warm = t.Stats()
	}
}

// walkCHiRP is walkPlain feeding CHiRP its precomputed signature pair
// per access (demand in the low half, prefetch in the high half). The
// concrete receiver keeps the SetSignatures call devirtualized.
//
//chirp:hotpath
func (w *denseWalker) walkCHiRP(v *replayView, p *core.CHiRP, sigs []uint32) {
	t := w.t
	pcs := v.pc
	vpns := v.vpn[:len(pcs)]
	sets := v.set[:len(pcs)]
	instrs := v.instr[:len(pcs)]
	sigs = sigs[:len(pcs)]
	pfOff, pfVPN := v.pfOff, v.pfVPN
	for i := range pcs {
		if i == v.warmIdx {
			w.warm = t.Stats()
		}
		s := sigs[i]
		p.SetSignatures(uint64(s&0xffff), uint64(s>>16))
		instr := instrs[i] != 0
		vpn := vpns[i]
		w.a.PC = pcs[i]
		w.a.VPN = vpn
		w.a.Set = sets[i]
		w.a.Instr = instr
		if _, hit := t.LookupIndexed(&w.a); !hit {
			t.Insert(&w.a, vpn)
		}
		if pfOff != nil {
			for k := pfOff[i]; k < pfOff[i+1]; k++ {
				pv := pfVPN[k]
				if t.Contains(pv) {
					continue
				}
				w.pa.PC = pcs[i]
				w.pa.VPN = pv
				w.pa.Instr = instr
				t.InsertPrefetch(&w.pa, pv)
			}
		}
	}
	if v.warmIdx == len(pcs) {
		w.warm = t.Stats()
	}
}

// walkGHRP is walkPlain feeding GHRP its precomputed signature per
// access.
//
//chirp:hotpath
func (w *denseWalker) walkGHRP(v *replayView, p *policy.GHRP, sigs []uint64) {
	t := w.t
	pcs := v.pc
	vpns := v.vpn[:len(pcs)]
	sets := v.set[:len(pcs)]
	instrs := v.instr[:len(pcs)]
	sigs = sigs[:len(pcs)]
	pfOff, pfVPN := v.pfOff, v.pfVPN
	for i := range pcs {
		if i == v.warmIdx {
			w.warm = t.Stats()
		}
		p.SetSignatures(sigs[i], 0)
		instr := instrs[i] != 0
		vpn := vpns[i]
		w.a.PC = pcs[i]
		w.a.VPN = vpn
		w.a.Set = sets[i]
		w.a.Instr = instr
		if _, hit := t.LookupIndexed(&w.a); !hit {
			t.Insert(&w.a, vpn)
		}
		if pfOff != nil {
			for k := pfOff[i]; k < pfOff[i+1]; k++ {
				pv := pfVPN[k]
				if t.Contains(pv) {
					continue
				}
				w.pa.PC = pcs[i]
				w.pa.VPN = pv
				w.pa.Instr = instr
				t.InsertPrefetch(&w.pa, pv)
			}
		}
	}
	if v.warmIdx == len(pcs) {
		w.warm = t.Stats()
	}
}

// RunMulti measures one workload under every policy in factories,
// sharing a single trace traversal when spec.Cache enables the
// capture/replay path (capture once, then one fused ReplayMulti pass).
// Without a cache — or when the capture is over the cache's budget —
// it runs RunTLBOnly once per policy over a fresh source, which is
// bit-identical but unfused; so do branch observers ReplayMulti cannot
// feed. spec.Policy is ignored; factories drives the fan-out. Results
// are ordered like factories.
func RunMulti(ctx context.Context, spec RunSpec, factories []PolicyFactory) ([]TLBOnlyResult, error) {
	if len(factories) == 0 {
		return nil, errors.New("sim: RunMulti needs at least one policy")
	}
	if err := spec.validateTrace(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ps := make([]tlb.Policy, len(factories))
	for i, f := range factories {
		ps[i] = f()
	}
	out := make([]TLBOnlyResult, len(ps))
	replayed := make([]bool, len(ps))
	if spec.Cache != nil {
		stream, err := StreamFor(spec.Cache, spec.name(), spec.specHash(), spec.Config, spec.open)
		switch {
		case errors.Is(err, l2stream.ErrOverBudget):
			// Too big to hold: every policy runs direct.
		case err != nil:
			return nil, fmt.Errorf("sim: capturing %s: %w", spec.name(), err)
		default:
			var fed []tlb.Policy
			var idx []int
			for i, p := range ps {
				if replayable(p) {
					fed, idx = append(fed, p), append(idx, i)
				}
			}
			if len(fed) > 0 {
				rs, err := ReplayMulti(stream, fed, spec.Config)
				if err != nil {
					return nil, err
				}
				for k, i := range idx {
					out[i], replayed[i] = rs[k], true
				}
			}
		}
	}
	for i, p := range ps {
		if replayed[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		src, err := spec.open()
		if err != nil {
			return nil, err
		}
		if out[i], err = RunTLBOnly(src, p, spec.Config); err != nil {
			return nil, err
		}
	}
	return out, nil
}
