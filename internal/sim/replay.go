package sim

import (
	"fmt"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
)

// CaptureConfig projects a TLB-only configuration onto its
// policy-invariant part — everything above the L2 policy boundary.
// Runs whose CaptureConfigs are equal share one captured stream, no
// matter which L2 policy, L2 geometry (beyond the page size), or
// prefetch distance they use.
func CaptureConfig(cfg TLBOnlyConfig) l2stream.Config {
	return l2stream.Config{
		L1I:            cfg.Hierarchy.L1I,
		L1D:            cfg.Hierarchy.L1D,
		PageShift:      cfg.Hierarchy.L2.PageShift,
		Instructions:   cfg.Instructions,
		WarmupFraction: cfg.WarmupFraction,
	}
}

// CaptureKey returns the stream-cache key for a workload under cfg.
// spec is the content hash of the workload spec the workload came from
// ("" for legacy suite workloads and trace files); it keeps captures
// from colliding across specs that reuse a workload name.
func CaptureKey(workload, spec string, cfg TLBOnlyConfig) l2stream.Key {
	return l2stream.Key{Workload: workload, Spec: spec, Config: CaptureConfig(cfg)}
}

// StreamFor returns the captured stream for a workload from cache,
// capturing it on first use. open must return a fresh bounded source
// for the workload (it is only called when the capture actually runs).
// A stream over the cache's byte budget fails with an error matching
// l2stream.ErrOverBudget; callers then run RunTLBOnly over a fresh
// source, as Run and RunMulti do.
func StreamFor(cache *l2stream.Cache, workload, spec string, cfg TLBOnlyConfig, open func() (trace.Source, error)) (*l2stream.Stream, error) {
	return cache.GetOrCapture(CaptureKey(workload, spec, cfg), func(opts l2stream.CaptureOptions) (*l2stream.Stream, error) {
		src, err := open()
		if err != nil {
			return nil, err
		}
		return l2stream.Capture(src, CaptureConfig(cfg), opts)
	})
}

// replayResult closes out a replayed policy's L2 TLB — accounting
// flush and metric publication, the same epilogue as the direct run —
// and assembles its result from the TLB and the stats latched at the
// warmup marker, in the same field order and arithmetic as RunTLBOnly.
func replayResult(stream *l2stream.Stream, l2p tlb.Policy, l2 *tlb.TLB, warmStats tlb.Stats) TLBOnlyResult {
	l2.FlushAccounting()
	publishRun(l2p, l2)
	st := l2.Stats()
	res := TLBOnlyResult{
		Policy:       l2p.Name(),
		Instructions: stream.Instructions() - stream.WarmupInstructions(),
		L2Accesses:   st.Accesses,
		L2Misses:     st.Misses - warmStats.Misses,
		Efficiency:   st.Efficiency(),
		L1IMisses:    stream.L1IMisses(),
		L1DMisses:    stream.L1DMisses(),
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.L2Misses) / (float64(res.Instructions) / 1000)
	}
	if ta, ok := l2p.(tlb.TableAccounting); ok {
		res.TableReads, res.TableWrites = ta.TableAccesses()
		if st.Accesses > 0 {
			res.TableAccessRate = float64(res.TableReads+res.TableWrites) / float64(st.Accesses)
		}
	}
	return res
}

// StreamVPNs extracts the L2 demand-access VPN sequence from a
// captured stream — the input CollectL2Stream produces, without
// re-running the generator and L1 filters. It copies the vpn column of
// the dense replay view, which the OPT oracle's own replay then shares.
func StreamVPNs(stream *l2stream.Stream, cfg TLBOnlyConfig) ([]uint64, error) {
	if got, want := stream.Config(), CaptureConfig(cfg); got != want {
		return nil, fmt.Errorf("sim: stream captured under %+v cannot serve %+v", got, want)
	}
	rv, err := stream.Derived(replayViewSpec(cfg))
	if err != nil {
		return nil, err
	}
	return append([]uint64(nil), rv.(*replayView).vpn...), nil
}
