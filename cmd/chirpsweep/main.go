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
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/chirplab/chirp/cmd/internal/cli"
	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/tlb"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var sweeps = []string{"table", "history", "branchhist", "threshold", "ways", "entries", "filters"}

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("chirpsweep", stderr, cli.Prefix|cli.Streams|cli.Telemetry, cli.Defaults{Instr: 1_000_000, N: 96})
	sweep := c.Flags.String("sweep", "table", strings.Join(sweeps, " | "))
	if code, ok := c.Parse(args); !ok {
		return code
	}
	if !slices.Contains(sweeps, *sweep) {
		return c.Usage("unknown sweep %q", *sweep)
	}
	ws := c.Suite()
	specLabel := ""
	if c.Compiled != nil {
		specLabel = c.Compiled.Hash
	}
	env, teardown, err := c.Start(fmt.Sprintf("chirpsweep sweep=%s n=%d instr=%d spec=%s", *sweep, c.N, c.Instr, specLabel), true)
	if err != nil {
		return c.Fail(err)
	}
	defer teardown()
	// Sweep points vary only the L2 policy and geometry, which the
	// captured stream is invariant to, so env.Streams serves every
	// measure() call below.
	opts := sim.SuiteOptions{Workers: c.Workers, Sink: env.Sink, Checkpoint: env.Checkpoint, StreamCache: env.Streams}

	cfg := sim.DefaultTLBOnlyConfig(c.Instr)

	// measure returns the average MPKI for a policy factory, with an
	// optional TLB geometry override. Every sweep point shares the
	// policy name "x", so the scope is what keeps checkpoint keys of
	// different configurations apart.
	fail := false
	measure := func(scope string, f sim.PolicyFactory, geom *tlb.Config) float64 {
		if fail {
			return 0
		}
		pc := cfg
		if geom != nil {
			pc.Hierarchy.L2 = *geom
		}
		o := opts
		o.Scope = scope
		rs, err := sim.RunSuiteTLBOnlyCtx(env.Ctx, ws, []sim.NamedFactory{{Name: "x", New: f}}, pc, o)
		if err != nil {
			c.Fail(err)
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
	}
	if fail {
		return 1
	}
	if err := stats.Table(stdout, []string{"configuration", "mean MPKI", "vs LRU"}, rows); err != nil {
		return c.Fail(err)
	}
	return 0
}
