// Command chirpsweep runs free-form parameter sweeps beyond the
// paper's figures: CHiRP configuration knobs, TLB geometry, and
// update-filter ablations, measured as average MPKI reduction versus
// LRU over a suite prefix.
//
//	chirpsweep -sweep table    # prediction-table size (like Fig. 9)
//	chirpsweep -sweep history  # path-history length
//	chirpsweep -sweep branchhist
//	chirpsweep -sweep threshold
//	chirpsweep -sweep ways     # L2 TLB associativity
//	chirpsweep -sweep entries  # L2 TLB capacity
//	chirpsweep -sweep filters  # selective-hit-update / first-hit ablation
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

func main() { os.Exit(run()) }

func run() int {
	sweep := flag.String("sweep", "table", "table | history | branchhist | threshold | ways | entries | filters")
	n := flag.Int("n", 96, "suite prefix size")
	workloadSpec := flag.String("workload-spec", "", "workload spec (registry name or JSON file) replacing the built-in suite; -n still selects a prefix of its compiled workloads")
	seed := flag.Uint64("seed", 0, "master seed for -workload-spec; overrides the spec document's seed")
	instr := flag.Uint64("instr", 1_000_000, "instructions per trace")
	workers := flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	l2cache := flag.Int64("l2cache", 0, "L2 event-stream cache budget in MiB, shared across every sweep point (0 = 96 MiB default, negative = disable capture/replay)")
	capturedir := flag.String("capturedir", "", "persistent capture directory: captured L2 event streams are stored here with their derived views, one content-addressed file per capture, and reused by later runs in any process sharing the directory")
	capturedirMax := flag.Int64("capturedir-max-bytes", 0, "byte budget for -capturedir: least-recently-used store files (one per capture, holding its derived views; files of older codec versions count too) are evicted to stay under it (0 = unbounded)")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint file; a killed sweep resumes where it stopped")
	metricsAddr := flag.String("metrics", "", "serve /metrics (Prometheus), /debug/vars (JSON) and /debug/pprof on this address (e.g. localhost:8080)")
	manifest := flag.String("manifest", "", "append a JSONL run manifest (run identity + per-job metric deltas) to this file")
	progress := flag.Duration("progress", 0, "print a progress line to stderr at this interval (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	if seedSet && *workloadSpec == "" {
		fmt.Fprintln(os.Stderr, "chirpsweep: -seed requires -workload-spec")
		return 2
	}
	ws := workloads.SuiteN(*n)
	specLabel := ""
	if *workloadSpec != "" {
		s, err := spec.Resolve(*workloadSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
			return 2
		}
		compiled, err := spec.Compile(s, spec.Options{Seed: *seed, SeedSet: seedSet})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
			return 2
		}
		ws = compiled.Workloads()
		if *n > 0 && *n < len(ws) {
			ws = ws[:*n]
		}
		specLabel = compiled.Hash
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopProf, err := engine.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
		}
	}()
	meta := fmt.Sprintf("chirpsweep sweep=%s n=%d instr=%d spec=%s", *sweep, *n, *instr, specLabel)

	if *metricsAddr != "" {
		bound, stopMetrics, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
			return 1
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "chirpsweep: metrics on http://%s/metrics\n", bound)
	}

	opts := sim.SuiteOptions{Workers: *workers}
	var sinks []engine.Sink
	if *manifest != "" {
		man, err := obs.OpenManifest(*manifest, obs.Default, meta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
			return 1
		}
		defer func() {
			if err := man.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
			}
		}()
		sinks = append(sinks, engine.ManifestSink(man))
	}
	if *l2cache >= 0 {
		// Sweep points vary only the L2 policy and geometry, which the
		// captured stream is invariant to — one cache serves every
		// measure() call below, so each workload's trace is generated
		// and L1-filtered once for the whole sweep. With -capturedir the
		// captures also persist on disk, so a re-run (or another
		// process) skips the capture passes entirely.
		var streams *l2stream.Cache
		if *capturedir != "" {
			var err error
			streams, err = l2stream.NewPersistent(*l2cache<<20, *capturedir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
				return 1
			}
			streams.SetStoreMaxBytes(*capturedirMax)
		} else {
			streams = l2stream.NewCache(*l2cache << 20)
		}
		defer streams.Close()
		opts.StreamCache = streams
	} else {
		opts.StreamBudget = -1
	}
	if *progress > 0 {
		sinks = append(sinks, engine.NewReporter(os.Stderr, *progress))
	}
	if len(sinks) > 0 {
		opts.Sink = engine.MultiSink(sinks...)
	}
	if *checkpoint != "" {
		ck, err := engine.Open(*checkpoint, meta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
			return 1
		}
		defer ck.Close()
		opts.Checkpoint = ck
	}

	cfg := sim.DefaultTLBOnlyConfig(*instr)

	// measure returns the average MPKI for a policy factory, with an
	// optional TLB geometry override. Every sweep point shares the
	// policy name "x", so the scope is what keeps checkpoint keys of
	// different configurations apart.
	fail := false
	measure := func(scope string, f sim.PolicyFactory, geom *tlb.Config) float64 {
		if fail {
			return 0
		}
		c := cfg
		if geom != nil {
			c.Hierarchy.L2 = *geom
		}
		o := opts
		o.Scope = scope
		rs, err := sim.RunSuiteTLBOnlyCtx(ctx, ws, []sim.NamedFactory{{Name: "x", New: f}}, c, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
			fail = true
			return 0
		}
		sum := 0.0
		for _, r := range rs {
			sum += r.MPKI
		}
		return sum / float64(len(rs))
	}
	lruF, _ := sim.Factories([]string{"lru"})
	chirpWith := func(mut func(*core.Config)) sim.PolicyFactory {
		c := core.DefaultConfig()
		mut(&c)
		return sim.CHiRPFactory(c)
	}

	var rows [][]string
	switch *sweep {
	case "table":
		base := measure("lru", lruF[0].New, nil)
		for _, entries := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768} {
			m := measure(fmt.Sprintf("table/%d", entries), chirpWith(func(c *core.Config) { c.TableEntries = entries }), nil)
			rows = append(rows, []string{fmt.Sprintf("%d counters (%dB)", entries, entries/4),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "history":
		base := measure("lru", lruF[0].New, nil)
		for _, l := range []int{4, 8, 12, 16, 24, 32, 40} {
			m := measure(fmt.Sprintf("history/%d", l), chirpWith(func(c *core.Config) { c.History.PathLength = l }), nil)
			rows = append(rows, []string{fmt.Sprintf("path length %d", l),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "branchhist":
		base := measure("lru", lruF[0].New, nil)
		for _, l := range []int{2, 4, 8, 16, 32} {
			m := measure(fmt.Sprintf("branchhist/%d", l), chirpWith(func(c *core.Config) { c.History.BranchLength = l }), nil)
			rows = append(rows, []string{fmt.Sprintf("branch length %d", l),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "threshold":
		base := measure("lru", lruF[0].New, nil)
		for _, tc := range []struct {
			bits uint
			th   uint8
		}{{2, 0}, {2, 1}, {2, 2}, {3, 3}, {3, 5}} {
			m := measure(fmt.Sprintf("threshold/%d-%d", tc.bits, tc.th), chirpWith(func(c *core.Config) { c.CounterBits = tc.bits; c.DeadThreshold = tc.th }), nil)
			rows = append(rows, []string{fmt.Sprintf("%d-bit counters, threshold %d", tc.bits, tc.th),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "ways":
		for _, ways := range []int{2, 4, 8, 16} {
			geom := tlb.Config{Name: "L2 TLB", Entries: 1024, Ways: ways, PageShift: 12}
			base := measure(fmt.Sprintf("ways/%d/lru", ways), lruF[0].New, &geom)
			m := measure(fmt.Sprintf("ways/%d/chirp", ways), sim.CHiRPFactory(core.DefaultConfig()), &geom)
			rows = append(rows, []string{fmt.Sprintf("%d-way", ways),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "entries":
		for _, entries := range []int{256, 512, 1024, 2048, 4096} {
			geom := tlb.Config{Name: "L2 TLB", Entries: entries, Ways: 8, PageShift: 12}
			base := measure(fmt.Sprintf("entries/%d/lru", entries), lruF[0].New, &geom)
			m := measure(fmt.Sprintf("entries/%d/chirp", entries), sim.CHiRPFactory(core.DefaultConfig()), &geom)
			rows = append(rows, []string{fmt.Sprintf("%d entries", entries),
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	case "filters":
		base := measure("lru", lruF[0].New, nil)
		for _, fc := range []struct {
			label               string
			selective, firstHit bool
		}{
			{"both filters on (paper)", true, true},
			{"no selective hit update", false, true},
			{"no first-hit-only", true, false},
			{"both filters off", false, false},
		} {
			m := measure(fmt.Sprintf("filters/%v-%v", fc.selective, fc.firstHit), chirpWith(func(c *core.Config) {
				c.SelectiveHitUpdate = fc.selective
				c.FirstHitOnly = fc.firstHit
			}), nil)
			rows = append(rows, []string{fc.label,
				fmt.Sprintf("%.3f", m), fmt.Sprintf("%+.2f%%", stats.Reduction(base, m))})
		}
	default:
		fmt.Fprintf(os.Stderr, "chirpsweep: unknown sweep %q\n", *sweep)
		return 2
	}
	if fail {
		return 1
	}
	if err := stats.Table(os.Stdout, []string{"configuration", "mean MPKI", "vs LRU"}, rows); err != nil {
		fmt.Fprintf(os.Stderr, "chirpsweep: %v\n", err)
		return 1
	}
	return 0
}
