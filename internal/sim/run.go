package sim

import (
	"context"
	"errors"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// RunSpec bundles everything one TLB-only measurement needs. It is the
// single argument of Run, so the call sites read as configuration
// rather than positional plumbing, and new knobs never change the
// signature.
//
// Exactly one of Workload and Open must be set:
//
//   - Workload names a synthetic workload; Run derives the bounded
//     trace source (and the stream-cache key) from it.
//   - Open returns a fresh bounded source per call — for trace files or
//     custom generators. It may be called zero times (stream already
//     cached) or once.
type RunSpec struct {
	// Workload, when non-nil, supplies both the trace source and the
	// run's name.
	Workload *workloads.Workload
	// Open supplies the trace source when Workload is nil.
	Open func() (trace.Source, error)
	// Name identifies the run in the stream cache. Required with Open
	// when Cache is set; defaults to Workload.Name otherwise.
	Name string
	// SpecHash qualifies the stream-cache key with the content hash of
	// the workload spec the run came from; defaults to
	// Workload.SpecHash ("" for legacy workloads and trace files).
	SpecHash string
	// Policy builds the L2 replacement policy under test.
	Policy PolicyFactory
	// Config is the TLB-only configuration (hierarchy, instruction
	// budget, warmup, prefetch distance).
	Config TLBOnlyConfig
	// Cache, when non-nil, selects the capture/replay path: the
	// workload's policy-invariant L2 event stream is captured once into
	// the cache and replayed under Policy — bit-identical to the direct
	// path, and much cheaper from the second policy on. When nil, Run
	// drives the full trace directly.
	Cache *l2stream.Cache
}

// name returns the run's stream-cache identity.
func (s *RunSpec) name() string {
	if s.Name != "" {
		return s.Name
	}
	if s.Workload != nil {
		return s.Workload.Name
	}
	return ""
}

// specHash returns the run's spec identity for the stream-cache key.
func (s *RunSpec) specHash() string {
	if s.SpecHash != "" {
		return s.SpecHash
	}
	if s.Workload != nil {
		return s.Workload.SpecHash
	}
	return ""
}

// open returns a fresh bounded source for the spec.
func (s *RunSpec) open() (trace.Source, error) {
	if s.Workload != nil {
		return trace.NewLimit(s.Workload.Source(), s.Config.Instructions), nil
	}
	return s.Open()
}

// validate rejects specs that cannot run before any work starts.
func (s *RunSpec) validate() error {
	if s.Policy == nil {
		return errors.New("sim: RunSpec.Policy is required")
	}
	return s.validateTrace()
}

// validateTrace is validate minus the Policy requirement — the shared
// part for RunMulti, whose policies arrive as a separate slice.
func (s *RunSpec) validateTrace() error {
	switch {
	case s.Workload == nil && s.Open == nil:
		return errors.New("sim: RunSpec needs Workload or Open")
	case s.Workload != nil && s.Open != nil:
		return errors.New("sim: RunSpec.Workload and RunSpec.Open are mutually exclusive")
	case s.Cache != nil && s.name() == "":
		return errors.New("sim: RunSpec.Name is required to key the stream cache when Open is used")
	}
	return nil
}

// Run is the one TLB-only entry point: it measures spec.Policy over
// spec's trace under spec.Config, choosing the capture/replay path when
// spec.Cache is set and the direct path otherwise — the two are
// bit-identical, so callers pick purely on cost. It is RunMulti over
// one policy, so it shares RunMulti's fallbacks to the direct path
// (over-budget captures, branch observers ReplayMulti cannot feed).
// The context gates the start of the run (simulations are CPU-bound
// and finish in bounded time once started); suite drivers check it
// between jobs via the engine.
//
// On success the run's TLB and predictor counters are published to the
// default obs registry (see PublishMetrics on tlb.TLB and the policy
// implementations).
func Run(ctx context.Context, spec RunSpec) (TLBOnlyResult, error) {
	if err := spec.validate(); err != nil {
		return TLBOnlyResult{}, err
	}
	rs, err := RunMulti(ctx, spec, []PolicyFactory{spec.Policy})
	if err != nil {
		return TLBOnlyResult{}, err
	}
	return rs[0], nil
}
