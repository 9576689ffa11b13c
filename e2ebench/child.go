package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/experiments"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

// childEnv names the environment variable that turns the benchmark binary
// into a child process: "sweep" sets up and makes one timed
// experiments.Fig7/Fig8 call; "trace" rebuilds the same jobs from the
// layers' public calls with spans around each. Each child is its own
// process, so its peak RSS and stream caches are its own.
const childEnv = "E2EBENCH_CHILD"

// childSpec is the whole input of a child, passed as its one argument.
type childSpec struct {
	Exp       string `json:"exp"` // "fig7" or "fig8"
	Seed      uint64 `json:"seed"`
	N         int    `json:"n"` // suite prefix (0 = full suite)
	Instr     uint64 `json:"instr"`
	StoreDir  string `json:"store_dir,omitempty"` // fig7 persistent capture store
	SpanFile  string `json:"span_file,omitempty"` // trace: where spans go at exit
	RefSample []int  `json:"ref_sample,omitempty"`
}

// rtStats are runtime/metrics totals read at run boundaries.
type rtStats struct {
	AllocBytes float64 `json:"alloc_bytes"`
	GCCycles   float64 `json:"gc_cycles"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	TotalCPUS  float64 `json:"total_cpu_s"`
}

// childOut is a child's whole output, one JSON document on stdout.
type childOut struct {
	// Err is a failure of the child itself; ExpErr is an error the
	// measured program returned, which the parent counts as failed
	// cells.
	Err    string `json:"err,omitempty"`
	ExpErr string `json:"exp_err,omitempty"`
	// SetupS is the sweep's own set-up: compiling the suite and opening
	// the capture store. WallS covers the Fig7/Fig8 call and closing the
	// store.
	SetupS float64     `json:"setup_s"`
	WallS  float64     `json:"wall_s"`
	CPUS   float64     `json:"cpu_s"`
	JobNS  []int64     `json:"job_ns,omitempty"`
	Labels []string    `json:"labels"`
	Matrix [][]float64 `json:"matrix"` // [workload][policy], sim.PaperPolicies order
	// Headline is the CHiRP result the paper quotes: mean-MPKI reduction
	// vs LRU (fig7) or geomean speedup over LRU (fig8), in percent.
	Headline float64            `json:"headline"`
	Runtime  rtStats            `json:"runtime"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	// RefCells/RefFailed count the traced run's own checks: sampled
	// cells against sim.RunTLBOnly and memoized/solo replays against the
	// first pass, each field for field.
	RefCells  int `json:"ref_cells"`
	RefFailed int `json:"ref_failed"`
}

func childMain(mode string, args []string) int {
	out := childOut{}
	var cs childSpec
	if len(args) != 1 {
		out.Err = "child: want one JSON argument"
	} else if err := json.Unmarshal([]byte(args[0]), &cs); err != nil {
		out.Err = fmt.Sprintf("child: %v", err)
	} else {
		var err error
		switch mode {
		case "sweep":
			out, err = runSweep(cs)
		case "trace":
			out, err = runTraced(cs)
		default:
			err = fmt.Errorf("child: unknown mode %q", mode)
		}
		if err != nil {
			out.Err = err.Error()
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil || out.Err != "" {
		return 1
	}
	return 0
}

// compileSuite compiles the default workload spec under seed — the
// only input the program gets — and returns its first n workloads
// (n <= 0: all).
func compileSuite(seed uint64, n int) ([]*workloads.Workload, error) {
	c, err := spec.Compile(spec.Default(), spec.Options{Seed: seed, SeedSet: true})
	if err != nil {
		return nil, err
	}
	ws := c.Suite()
	if n > 0 && n < len(ws) {
		ws = ws[:n]
	}
	return ws, nil
}

// jobSink records each engine job's elapsed time.
type jobSink struct {
	mu sync.Mutex
	ns []int64
}

func (s *jobSink) RunStart(int, int) {}
func (s *jobSink) RunEnd()           {}
func (s *jobSink) JobDone(_ engine.Key, elapsed time.Duration, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ns = append(s.ns, int64(elapsed))
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func readRuntime() rtStats {
	ss := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ss)
	v := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return rtStats{AllocBytes: v(ss[0]), GCCycles: v(ss[1]), GCCPUS: v(ss[2]), TotalCPUS: v(ss[3])}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{AllocBytes: a.AllocBytes - b.AllocBytes, GCCycles: a.GCCycles - b.GCCycles,
		GCCPUS: a.GCCPUS - b.GCCPUS, TotalCPUS: a.TotalCPUS - b.TotalCPUS}
}

// runSweep times one experiments.Fig7 or Fig8 call through its public
// entry point, exactly as chirpexp makes it.
func runSweep(cs childSpec) (childOut, error) {
	var out childOut
	t0 := time.Now()
	suite, err := compileSuite(cs.Seed, cs.N)
	if err != nil {
		return out, err
	}
	sink := &jobSink{}
	o := experiments.Options{Suite: suite, Instructions: cs.Instr, WalkPenalty: walkPenalty,
		Workers: workers, Ctx: context.Background(), Sink: sink}
	var cache *l2stream.Cache
	if cs.Exp == "fig7" {
		if cache, err = l2stream.NewPersistent(0, cs.StoreDir); err != nil {
			return out, err
		}
		o.StreamCache = cache
	}
	out.SetupS = time.Since(t0).Seconds()

	rt0, cpu0, t0 := readRuntime(), cpuSeconds(), time.Now()
	var curve *stats.SCurve
	switch cs.Exp {
	case "fig7":
		var r *experiments.Fig7Result
		if r, err = experiments.Fig7(o); err == nil {
			curve = r.Curve
			for _, a := range r.Averages {
				if a.Policy == "chirp" {
					out.Headline = a.ReductionPct
				}
			}
		}
	case "fig8":
		var r *experiments.Fig8Result
		if r, err = experiments.Fig8(o); err == nil {
			curve = r.Curve
			out.Headline = r.GeoMeanPct["chirp"]
		}
	default:
		err = fmt.Errorf("unknown experiment %q", cs.Exp)
	}
	if cache != nil {
		err = errors.Join(err, cache.Close())
	}
	out.WallS = time.Since(t0).Seconds()
	out.CPUS = cpuSeconds() - cpu0
	out.Runtime = readRuntime().sub(rt0)
	out.JobNS = sink.ns
	if err != nil {
		out.ExpErr = err.Error()
		return out, nil
	}
	out.Labels = curve.Labels
	out.Matrix = make([][]float64, len(curve.Labels))
	for i := range curve.Labels {
		row := make([]float64, len(sim.PaperPolicies))
		for j, p := range sim.PaperPolicies {
			row[j] = curve.Series[p][i]
		}
		out.Matrix[i] = row
	}
	return out, nil
}

func runTraced(cs childSpec) (childOut, error) {
	suite, err := compileSuite(cs.Seed, cs.N)
	if err != nil {
		return childOut{}, err
	}
	rec := newRecorder()
	var out childOut
	switch cs.Exp {
	case "fig7":
		out, err = traceFig7(cs, suite, rec)
	case "fig8":
		out, err = traceFig8(cs, suite, rec)
	default:
		err = fmt.Errorf("unknown experiment %q", cs.Exp)
	}
	if err != nil {
		return out, err
	}
	uncovered, total := rec.unattributed("job")
	out.Layers["bench.unattributed_frac"] = ratio(float64(uncovered), float64(total))
	if cs.SpanFile != "" {
		if err := rec.write(cs.SpanFile); err != nil {
			return out, err
		}
	}
	return out, nil
}

// fig7Job is what one traced fig7 job learned.
type fig7Job struct {
	res      []sim.TLBOnlyResult
	genNS    int64
	records  uint64
	events   uint64
	bytes    uint64
	accesses uint64
}

// traceFig7 rebuilds experiments.Fig7's jobs — one per workload, all
// six policies fused — from the calls the sweep makes:
// Cache.GetOrCapture with a capture callback running l2stream.Capture
// (the body of sim.StreamFor, spelled out so the capture gets its own
// span), then sim.ReplayMulti. A second, diagnostic pass then replays
// each stream again over memoized derived views, fused and per policy.
// Both passes run on the engine's worker pool, as the sweep does.
func traceFig7(cs childSpec, suite []*workloads.Workload, rec *recorder) (childOut, error) {
	cfg := sim.DefaultTLBOnlyConfig(cs.Instr)
	facs, err := sim.Factories(sim.PaperPolicies)
	if err != nil {
		return childOut{}, err
	}
	cache, err := l2stream.NewPersistent(0, cs.StoreDir)
	if err != nil {
		return childOut{}, err
	}
	defer cache.Close()
	policies := func() []tlb.Policy {
		ps := make([]tlb.Policy, len(facs))
		for i, f := range facs {
			ps[i] = f.New()
		}
		return ps
	}
	ecfg := engine.Config{Workers: workers}

	jobs := make([]engine.Job[fig7Job], len(suite))
	for i, w := range suite {
		jobs[i] = engine.Job[fig7Job]{Key: engine.Key{Scope: "trace", Workload: w.Name}, Run: func(context.Context) (fig7Job, error) {
			var jr fig7Job
			j := rec.job(i)
			root := j.open("job", -1)
			defer j.done()
			defer j.close(root, 0)
			g := j.open("l2stream.get_or_capture", root)
			captured := false
			stream, err := cache.GetOrCapture(sim.CaptureKey(w.Name, w.SpecHash, cfg), func(opts l2stream.CaptureOptions) (*l2stream.Stream, error) {
				captured = true
				src := newTimedSource(w.Source())
				c := j.open("l2stream.capture", g)
				s, err := l2stream.Capture(trace.NewLimit(src, cfg.Instructions), sim.CaptureConfig(cfg), opts)
				j.close(c, src.ns)
				jr.genNS, jr.records = src.ns, src.records
				return s, err
			})
			j.close(g, jr.genNS)
			if captured {
				j.spans[g].Name = "l2stream.get_or_capture.miss"
			} else {
				j.spans[g].Name = "l2stream.get_or_capture.hit"
			}
			if err != nil {
				return jr, err
			}
			jr.events, jr.bytes, jr.accesses = stream.Events(), uint64(stream.MemBytes()), stream.Accesses()
			r := j.open("sim.replay_multi", root)
			jr.res, err = sim.ReplayMulti(stream, policies(), cfg)
			j.close(r, 0)
			return jr, err
		}}
	}
	snap0 := obs.Default.Snapshot()
	t0 := time.Now()
	results, err := engine.Run(context.Background(), jobs, ecfg)
	wallA := time.Since(t0)
	delta := obs.Default.Snapshot().Delta(snap0)
	disk := diskUsage(cs.StoreDir)
	out := childOut{WallS: wallA.Seconds(), Layers: map[string]float64{}}
	if err != nil {
		out.ExpErr = err.Error()
		return out, nil
	}

	// Diagnostic pass, not part of the sweep's wall time: each job
	// returns how many of its memoized and solo replays differ from the
	// first replay.
	diag := make([]engine.Job[int], len(suite))
	for i, w := range suite {
		diag[i] = engine.Job[int]{Key: engine.Key{Scope: "diag", Workload: w.Name}, Run: func(context.Context) (int, error) {
			want := results[i].res
			j := rec.job(len(suite) + i)
			root := j.open("diag", -1)
			defer j.done()
			defer j.close(root, 0)
			stream, err := sim.StreamFor(cache, w.Name, w.SpecHash, cfg, func() (trace.Source, error) {
				return trace.NewLimit(w.Source(), cfg.Instructions), nil
			})
			if err != nil {
				return 2 * len(facs), nil
			}
			// The stream may have been evicted and reloaded: prime its
			// derived views so the timed replay below walks memoized views.
			p := j.open("sim.replay_multi.prime", root)
			_, err = sim.ReplayMulti(stream, policies(), cfg)
			j.close(p, 0)
			m := j.open("sim.replay_multi.memo", root)
			memo, merr := sim.ReplayMulti(stream, policies(), cfg)
			j.close(m, 0)
			failed := 0
			for k := range facs {
				if err != nil || merr != nil || memo[k] != want[k] {
					failed++
				}
			}
			for k, f := range facs {
				s := j.open("sim.replay_solo."+f.Name, root)
				solo, serr := sim.ReplayMulti(stream, []tlb.Policy{f.New()}, cfg)
				j.close(s, 0)
				if serr != nil || solo[0] != want[k] {
					failed++
				}
			}
			return failed, nil
		}}
	}
	diagFailed, err := engine.Run(context.Background(), diag, ecfg)
	if err != nil {
		return out, err
	}
	for _, f := range diagFailed {
		out.RefCells += 2 * len(facs)
		out.RefFailed += f
	}

	out.Labels = make([]string, len(suite))
	out.Matrix = make([][]float64, len(suite))
	var mpki = map[string][]float64{}
	var genNS, events, bytes, accesses, records float64
	for i, jr := range results {
		out.Labels[i] = suite[i].Name
		row := make([]float64, len(facs))
		for k, r := range jr.res {
			row[k] = r.MPKI
			mpki[facs[k].Name] = append(mpki[facs[k].Name], r.MPKI)
		}
		out.Matrix[i] = row
		genNS += float64(jr.genNS)
		records += float64(jr.records)
		events += float64(jr.events)
		bytes += float64(jr.bytes)
		accesses += float64(jr.accesses)
	}
	base := stats.Mean(mpki["lru"])
	out.Headline = stats.Reduction(base, stats.Mean(mpki["chirp"]))

	// Field-for-field reference: sampled workloads through the direct
	// driver, every policy.
	for _, i := range cs.RefSample {
		if i >= len(suite) {
			continue
		}
		for k, f := range facs {
			ref, err := sim.RunTLBOnly(trace.NewLimit(suite[i].Source(), cfg.Instructions), f.New(), cfg)
			out.RefCells++
			if err != nil || ref != results[i].res[k] {
				out.RefFailed++
			}
		}
	}

	dur, src := rec.byName()
	L := out.Layers
	L["workloads.gen_s"] = genNS / 1e9
	L["workloads.records"] = records
	L["workloads.ns_per_record"] = ratio(genNS, records)
	L["l2stream.capture_s"] = float64(dur["l2stream.capture"]-src["l2stream.capture"]) / 1e9
	L["l2stream.events"] = events
	L["l2stream.bytes_per_event"] = ratio(bytes, events)
	L["l2stream.store_write_s"] = float64(dur["l2stream.get_or_capture.miss"]-dur["l2stream.capture"]) / 1e9
	L["l2stream.store_read_s"] = float64(dur["l2stream.get_or_capture.hit"]) / 1e9
	hits := delta["chirp_l2stream_cache_disk_hits_total"]
	misses := delta["chirp_l2stream_cache_misses_total"]
	L["l2stream.disk_hits"] = hits
	L["l2stream.disk_writes"] = delta["chirp_l2stream_cache_disk_writes_total"]
	L["l2stream.disk_errors"] = delta["chirp_l2stream_cache_disk_errors_total"]
	L["l2stream.disk_hit_ratio"] = ratio(hits, hits+misses)
	L["l2stream.l2s_mib"] = float64(disk[".l2s"]) / (1 << 20)
	L["l2stream.l2d_mib"] = float64(disk[".l2d"]) / (1 << 20)
	L["l2stream.derived_s"] = float64(dur["sim.replay_multi"]-dur["sim.replay_multi.memo"]) / 1e9
	L["l2stream.derived_builds"] = delta["chirp_l2stream_derived_builds_total"]
	L["l2stream.derived_disk_hits"] = delta["chirp_l2stream_derived_disk_hits_total"]
	L["sim.walk_s"] = float64(dur["sim.replay_multi.memo"]) / 1e9
	for _, f := range facs {
		L["sim.walk_ns_per_access."+f.Name] = ratio(float64(dur["sim.replay_solo."+f.Name]), accesses)
	}
	const l2 = `{level="L2 TLB"}`
	L["tlb.l2_lookups"] = delta["chirp_tlb_lookups_total"+l2]
	L["tlb.l2_misses"] = delta["chirp_tlb_misses_total"+l2]
	L["tlb.l2_evictions"] = delta["chirp_tlb_evictions_total"+l2]
	predictorLayers(L, delta["chirp_predictor_predictions_total"],
		delta["chirp_predictor_dead_on_arrival_total"], delta["chirp_predictor_false_dead_total"])
	L["experiments.chirp_mpki_red_pct"] = out.Headline
	return out, nil
}

// column returns a policy's column in a result matrix.
func column(policy string) int {
	for k, p := range sim.PaperPolicies {
		if p == policy {
			return k
		}
	}
	panic("e2ebench: " + policy + " is not a paper policy")
}

func predictorLayers(L map[string]float64, predictions, doa, falseDead float64) {
	L["core.predictions"] = predictions
	L["core.dead_on_arrival"] = doa
	L["core.false_dead"] = falseDead
	L["core.false_dead_ratio"] = ratio(falseDead, doa)
}

// fig8Cell is what one traced fig8 job learned.
type fig8Cell struct {
	res        pipeline.Result
	genNS      int64
	records    uint64
	reads      uint64
	doa, fdead uint64
}

// traceFig8 rebuilds experiments.Fig8's jobs — one per (workload,
// policy) cell — from the calls sim.RunSuiteTimingCtx makes:
// pipeline.New, then (*Machine).Run over the bounded workload source,
// on the engine's worker pool.
func traceFig8(cs childSpec, suite []*workloads.Workload, rec *recorder) (childOut, error) {
	cfg := pipeline.DefaultConfig(cs.Instr, walkPenalty)
	facs, err := sim.Factories(sim.PaperPolicies)
	if err != nil {
		return childOut{}, err
	}
	np := len(facs)
	jobs := make([]engine.Job[fig8Cell], len(suite)*np)
	for k := range jobs {
		w, f := suite[k/np], facs[k%np]
		jobs[k] = engine.Job[fig8Cell]{Key: engine.Key{Scope: "trace", Workload: w.Name, Policy: f.Name}, Run: func(context.Context) (fig8Cell, error) {
			var c fig8Cell
			j := rec.job(k)
			root := j.open("job", -1)
			defer j.done()
			defer j.close(root, 0)
			pol := f.New()
			n := j.open("pipeline.new", root)
			m, err := pipeline.New(cfg, pol, func() tlb.Policy { return policy.NewLRU() })
			j.close(n, 0)
			if err != nil {
				return c, err
			}
			src := newTimedSource(w.Source())
			r := j.open("pipeline.run", root)
			c.res, err = m.Run(trace.NewLimit(src, cfg.Instructions))
			j.close(r, src.ns)
			c.genNS, c.records = src.ns, src.records
			if ch, ok := pol.(*core.CHiRP); ok {
				c.reads, _ = ch.TableAccesses()
				c.doa, c.fdead = ch.PredictionOutcomes()
			}
			return c, err
		}}
	}
	t0 := time.Now()
	cells, err := engine.Run(context.Background(), jobs, engine.Config{Workers: workers})
	wall := time.Since(t0)
	out := childOut{WallS: wall.Seconds(), Layers: map[string]float64{}}
	if err != nil {
		out.ExpErr = err.Error()
		return out, nil
	}

	out.Labels = make([]string, len(suite))
	out.Matrix = make([][]float64, len(suite))
	var genNS, records, ipc, walks, dram, lookups, misses, evictions, reads, doa, fdead float64
	for i, w := range suite {
		out.Labels[i] = w.Name
		row := make([]float64, np)
		base := cells[i*np+column("lru")].res.IPC
		for k := 0; k < np; k++ {
			c := cells[i*np+k]
			if base > 0 {
				row[k] = c.res.IPC / base
			}
			genNS += float64(c.genNS)
			records += float64(c.records)
			ipc += c.res.IPC
			walks += float64(c.res.PageWalks)
			dram += float64(c.res.DRAMAccesses)
			lookups += float64(c.res.L2TLBStats.Accesses)
			misses += float64(c.res.L2TLBStats.Misses)
			evictions += float64(c.res.L2TLBStats.Evictions)
			reads += float64(c.reads)
			doa += float64(c.doa)
			fdead += float64(c.fdead)
		}
		out.Matrix[i] = row
	}
	chirp := make([]float64, len(suite))
	for i := range suite {
		chirp[i] = out.Matrix[i][column("chirp")]
	}
	out.Headline = (stats.GeoMean(chirp) - 1) * 100

	dur, src := rec.byName()
	runSelf := float64(dur["pipeline.run"] - src["pipeline.run"])
	instr := float64(len(cells)) * float64(cs.Instr)
	L := out.Layers
	L["workloads.gen_s"] = genNS / 1e9
	L["workloads.records"] = records
	L["workloads.ns_per_record"] = ratio(genNS, records)
	L["pipeline.new_s"] = float64(dur["pipeline.new"]) / 1e9
	L["pipeline.run_s"] = runSelf / 1e9
	L["pipeline.ns_per_instr"] = ratio(runSelf, instr)
	L["pipeline.ipc"] = ratio(ipc, float64(len(cells)))
	L["pipeline.page_walks"] = walks
	L["pipeline.dram_accesses"] = dram
	L["tlb.l2_lookups"] = lookups
	L["tlb.l2_misses"] = misses
	L["tlb.l2_evictions"] = evictions
	predictorLayers(L, reads, doa, fdead)
	L["experiments.chirp_speedup_pct"] = out.Headline
	return out, nil
}
