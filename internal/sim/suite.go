package sim

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// SuiteResult is one (workload, policy) TLB-only measurement.
type SuiteResult struct {
	Workload string
	Category string
	Profile  string
	TLBOnlyResult
}

// TimingResult is one (workload, policy) full-timing measurement.
type TimingResult struct {
	Workload string
	Category string
	Profile  string
	pipeline.Result
}

// SuiteOptions carries the cross-cutting controls of a suite run;
// the zero value runs serially with no telemetry or checkpointing.
type SuiteOptions struct {
	// Workers bounds simulation parallelism (<= 0 means GOMAXPROCS).
	Workers int
	// Sink observes per-job progress (nil = silent).
	Sink engine.Sink
	// Checkpoint, when non-nil, restores already-completed (workload,
	// policy) rows instead of re-simulating them and records each new
	// completion, so a killed run resumes where it stopped.
	Checkpoint *engine.Checkpoint
	// Scope namespaces this invocation's checkpoint keys. Callers that
	// run the suite more than once against one checkpoint file (config
	// sweeps reusing policy names) must pass distinct scopes.
	Scope string
	// StreamCache, when non-nil, shares captured L2 event streams
	// across suite invocations, so repeated calls that differ only in
	// the L2 policy, L2 geometry, or prefetch distance capture each
	// workload once total. When nil, the TLB-only runner owns a
	// per-call cache with the default budget (released on return) so
	// the per-workload capture is still shared across this call's
	// policies.
	StreamCache *l2stream.Cache
}

// suiteJobs builds one engine job per (workload, policy) pair, in
// workload-major order — the result ordering every suite runner
// guarantees.
func suiteJobs[T any](ws []*workloads.Workload, pols []NamedFactory, scope string,
	run func(ctx context.Context, w *workloads.Workload, p NamedFactory) (T, error)) []engine.Job[T] {
	jobs := make([]engine.Job[T], 0, len(ws)*len(pols))
	for _, w := range ws {
		for _, p := range pols {
			w, p := w, p
			jobs = append(jobs, engine.Job[T]{
				Key: engine.Key{Scope: scope, Workload: w.Name, Policy: p.Name},
				Run: func(ctx context.Context) (T, error) { return run(ctx, w, p) },
			})
		}
	}
	return jobs
}

// RunSuiteTLBOnlyCtx measures each workload under each policy with
// the fast TLB-only driver: one engine job per workload captures (or
// reuses) the L2 event stream and replays every policy in a single
// fused pass (ReplayMulti), with the workloads fanned across the
// engine's worker pool. Results are ordered by workload then policy.
// On failure (including a panicking policy, which surfaces as an error
// naming its pair instead of crashing the process) the completed
// results are still returned — and still checkpointed, when
// opts.Checkpoint is set.
func RunSuiteTLBOnlyCtx(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, cfg TLBOnlyConfig, opts SuiteOptions) ([]SuiteResult, error) {
	cache := opts.StreamCache
	if cache == nil {
		cache = l2stream.NewCache(0)
		defer cache.Close()
	}
	factories := make([]PolicyFactory, len(pols))
	for i, p := range pols {
		factories[i] = p.New
	}
	row := func(w *workloads.Workload, res TLBOnlyResult, name string) SuiteResult {
		res.Policy = name
		return SuiteResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), TLBOnlyResult: res}
	}
	return fusedSuite(ctx, ws, pols, opts,
		func(ctx context.Context, w *workloads.Workload) ([]SuiteResult, error) {
			rs, err := RunMulti(ctx, RunSpec{Workload: w, Config: cfg, Cache: cache}, factories)
			rows := make([]SuiteResult, len(rs))
			for i := range rs {
				rows[i] = row(w, rs[i], pols[i].Name)
			}
			return rows, err
		},
		func(ctx context.Context, w *workloads.Workload, p NamedFactory) (SuiteResult, error) {
			// Solo runs reuse the already captured stream.
			res, err := Run(ctx, RunSpec{Workload: w, Policy: p.New, Config: cfg, Cache: cache})
			return row(w, res, p.Name), err
		})
}

// fusedSuite schedules one engine job per workload. A job runs multi,
// a single pass producing one row per policy; if that pass fails — one
// broken policy errors or panics mid-run, which necessarily takes the
// whole pass down — the job degrades to solo, one run per policy, so
// every healthy policy still delivers its row and the error blames the
// precise (workload, policy) cell, exactly as per-cell scheduling
// would. Panics are converted here rather than by the engine, whose
// recovery would blame the whole fused key.
//
// Results keep the workload-major, policy-minor order of per-cell
// scheduling, and a failed workload still leaves its policy rows in
// place (zero-valued where a policy failed) so callers indexing cell
// (i, j) stay correct. Checkpoint keys are per fused job — Policy is
// the "+"-joined policy list — so a resumed run reruns a half-finished
// workload instead of trusting partial rows.
func fusedSuite[R any](ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, opts SuiteOptions,
	multi func(ctx context.Context, w *workloads.Workload) ([]R, error),
	solo func(ctx context.Context, w *workloads.Workload, p NamedFactory) (R, error)) ([]R, error) {
	names := make([]string, len(pols))
	for i, p := range pols {
		names[i] = p.Name
	}
	joined := strings.Join(names, "+")
	jobs := make([]engine.Job[[]R], 0, len(ws))
	for _, w := range ws {
		w := w
		jobs = append(jobs, engine.Job[[]R]{
			Key: engine.Key{Scope: opts.Scope, Workload: w.Name, Policy: joined},
			Run: func(ctx context.Context) ([]R, error) {
				rows, err := guard(func() ([]R, error) { return multi(ctx, w) })
				if err == nil {
					return rows, nil
				}
				return soloCells(ctx, w, pols, opts.Scope, err, solo)
			},
		})
	}
	grouped, err := engine.Run(ctx, jobs, engine.Config{Workers: opts.Workers, Sink: opts.Sink, Checkpoint: opts.Checkpoint})
	flat := make([]R, 0, len(ws)*len(pols))
	for _, rows := range grouped {
		if rows == nil {
			rows = make([]R, len(pols))
		}
		flat = append(flat, rows...)
	}
	return flat, err
}

// soloCells is a fused job's fallback after its single pass failed
// with fusedErr: it reruns each policy alone and blames the first that
// fails by its own key. The returned rows accompany the error; the
// engine keeps both.
func soloCells[R any](ctx context.Context, w *workloads.Workload, pols []NamedFactory, scope string, fusedErr error,
	solo func(ctx context.Context, w *workloads.Workload, p NamedFactory) (R, error)) ([]R, error) {
	rows := make([]R, len(pols))
	var firstErr error
	for i, p := range pols {
		res, err := guard(func() (R, error) { return solo(ctx, w, p) })
		if err != nil {
			if firstErr == nil {
				firstErr = &engine.JobError{
					Key: engine.Key{Scope: scope, Workload: w.Name, Policy: p.Name},
					Err: err,
				}
			}
			continue
		}
		rows[i] = res
	}
	if firstErr == nil {
		// The fused pass failed but every solo rerun passed (a capture
		// error that resolved, or a flaky policy): report the original
		// failure rather than pretending it did not happen.
		firstErr = fmt.Errorf("%s: fused run failed (solo reruns passed): %w", w.Name, fusedErr)
	}
	return rows, firstErr
}

// guard runs f with the same panic conversion the engine applies, so a
// fused job's blame carries the panic value and stack.
func guard[T any](f func() (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &engine.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// RunSuiteTimingCtx measures each workload under each policy with the
// full timing model, with the same engine semantics as
// RunSuiteTLBOnlyCtx. Under the fixed-penalty walker one engine job per
// workload drives every policy through a single pipeline pass
// (pipeline.NewMulti), with fusedSuite's checkpoint keys and per-cell
// failure blame. The radix walker's cache traffic depends on the
// policy, so under it each (workload, policy) cell is its own job and
// machine.
func RunSuiteTimingCtx(ctx context.Context, ws []*workloads.Workload, pols []NamedFactory, cfg pipeline.Config, opts SuiteOptions) ([]TimingResult, error) {
	cell := func(_ context.Context, w *workloads.Workload, p NamedFactory) (TimingResult, error) {
		rs, err := runTiming(w, []NamedFactory{p}, cfg)
		if err != nil {
			return TimingResult{}, err
		}
		return rs[0], nil
	}
	if cfg.UseRadixWalker {
		jobs := suiteJobs(ws, pols, opts.Scope, cell)
		return engine.Run(ctx, jobs, engine.Config{Workers: opts.Workers, Sink: opts.Sink, Checkpoint: opts.Checkpoint})
	}
	return fusedSuite(ctx, ws, pols, opts,
		func(_ context.Context, w *workloads.Workload) ([]TimingResult, error) { return runTiming(w, pols, cfg) },
		cell)
}

// runTiming runs w through one pipeline machine carrying every policy
// in pols as its L2 TLB policy, returning one row per policy.
func runTiming(w *workloads.Workload, pols []NamedFactory, cfg pipeline.Config) ([]TimingResult, error) {
	names := make([]string, len(pols))
	policies := make([]tlb.Policy, len(pols))
	for i, p := range pols {
		names[i], policies[i] = p.Name, p.New()
	}
	fail := func(err error) ([]TimingResult, error) {
		return nil, fmt.Errorf("%s/%s: %w", w.Name, strings.Join(names, "+"), err)
	}
	m, err := pipeline.NewMulti(cfg, policies, func() tlb.Policy { return policy.NewLRU() })
	if err != nil {
		return fail(err)
	}
	rs, err := m.RunMulti(trace.NewLimit(w.Source(), cfg.Instructions))
	if err != nil {
		return fail(err)
	}
	rows := make([]TimingResult, len(rs))
	for i, res := range rs {
		res.Policy = names[i]
		rows[i] = TimingResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), Result: res}
	}
	return rows, nil
}
