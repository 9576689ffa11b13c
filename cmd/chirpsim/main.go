// Command chirpsim simulates one workload (or one trace file) under
// one or more L2 TLB replacement policies and prints MPKI, and — with
// -timing — IPC under the Table II machine.
//
//	chirpsim -workload db-000 -policies lru,srrip,chirp -instr 2000000
//	chirpsim -trace t.chtr -policies lru,chirp -timing -penalty 150
//	chirpsim -workload db-000 -describe   # program model as JSON
//	chirpsim -list
//
// With -workload-spec the workload population comes from a declarative
// spec (a registry name like "default", or a JSON file; see
// internal/workloads/spec). A spec with clients compiles to a combined
// multi-tenant workload (the default subject) plus per-tenant views;
// -seed overrides the document's master seed:
//
//	chirpsim -workload-spec examples/specs/multitenant.json -policies lru,chirp
//	chirpsim -workload-spec spec.json -workload mix/tenant-a -seed 7
//	chirpsim -workload-spec spec.json -list
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/chirplab/chirp/cmd/internal/cli"
	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("chirpsim", stderr, cli.Workload|cli.Penalty|cli.Streams|cli.Telemetry, cli.Defaults{Instr: 2_000_000})
	traceFile := c.Flags.String("trace", "", "binary trace file (alternative to -workload)")
	policies := c.Flags.String("policies", "lru,random,srrip,ship,ghrp,chirp", "comma-separated policy list")
	timing := c.Flags.Bool("timing", false, "run the full timing model (IPC) instead of TLB-only")
	list := c.Flags.Bool("list", false, "list policies and suite workloads, then exit")
	describe := c.Flags.Bool("describe", false, "print the workload's program model as JSON and exit")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	if c.Compiled != nil && *traceFile != "" {
		return c.Usage("-workload-spec and -trace are mutually exclusive")
	}
	if *list {
		fmt.Fprintln(stdout, "policies:", strings.Join(sim.PolicyNames(), " "))
		if c.Compiled != nil {
			fmt.Fprintf(stdout, "workloads of spec %s (hash %s, seed %d):\n", c.Compiled.Spec.Name, c.Compiled.Hash, c.Compiled.Seed)
			for _, w := range c.Compiled.Workloads() {
				fmt.Fprintf(stdout, "  %s (%s, %s)\n", w.Name, w.Category, w.Profile())
			}
			return 0
		}
		fmt.Fprintln(stdout, "workloads: the 870-entry suite, named <category>-<index>:")
		fmt.Fprintln(stdout, "  categories:", strings.Join(workloads.Categories, " "))
		fmt.Fprintln(stdout, "  e.g. spec-000 … spec-108, db-000 …, crypto-000 …")
		fmt.Fprintln(stdout, "specs: built-in", strings.Join(spec.Names(), " "), "or a JSON file via -workload-spec")
		return 0
	}

	// The run subject: a named workload, or the spec's combined
	// population when -workload is omitted.
	var w *workloads.Workload
	switch {
	case c.Workload != "":
		if w = c.Lookup(c.Workload); w == nil {
			return c.Usage("unknown workload %q (try -list)", c.Workload)
		}
	case c.Compiled != nil:
		w = c.Compiled.Combined()
	}

	if *describe {
		if w == nil {
			return c.Usage("-describe requires -workload (or a -workload-spec with clients)")
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(w.Describe()); err != nil {
			return c.Fail(err)
		}
		return 0
	}

	names := strings.Split(*policies, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}
	factories, err := sim.Factories(names)
	if err != nil {
		return c.Usage("%v", err)
	}
	subject := *traceFile
	specHash := ""
	switch {
	case w != nil:
		subject = w.Name
		specHash = w.SpecHash
	case *traceFile == "":
		return c.Usage("one of -workload, -workload-spec or -trace is required (see -list)")
	}
	openSource := func() (trace.Source, error) {
		if w != nil {
			return trace.NewLimit(w.Source(), c.Instr), nil
		}
		fs, err := trace.OpenFile(*traceFile)
		if err != nil {
			return nil, err
		}
		return trace.NewLimit(fs, c.Instr), nil
	}

	// TLB-only runs capture the policy-invariant L2 event stream once
	// and replay it under each policy. The timing model needs the full
	// per-instruction stream, so -timing never captures; it shares one
	// pipeline pass across the policies instead.
	env, teardown, err := c.Start(fmt.Sprintf("chirpsim workload=%s trace=%s spec=%s instr=%d timing=%v penalty=%d",
		subject, *traceFile, specHash, c.Instr, *timing, c.Penalty), !*timing)
	if err != nil {
		return c.Fail(err)
	}
	defer teardown()

	// One engine job runs every policy in a single pass. Timing drives
	// all L2 TLB policies through one pipeline machine over one trace
	// (pipeline.NewMulti); TLB-only captures (or loads) the stream and
	// replays every policy's TLB over the event view (sim.RunMulti).
	// Rows stay in -policies order, so the first policy remains the
	// comparison baseline.
	jobs := []engine.Job[[]policyRow]{{
		Key: engine.Key{Workload: subject, Policy: strings.Join(names, "+")},
		Run: func(jctx context.Context) ([]policyRow, error) {
			if *timing {
				return timingRows(openSource, factories, pipeline.DefaultConfig(c.Instr, c.Penalty))
			}
			pf := make([]sim.PolicyFactory, len(factories))
			for i, f := range factories {
				pf[i] = f.New
			}
			rs, err := sim.RunMulti(jctx, sim.RunSpec{
				Name:     subject,
				SpecHash: specHash,
				Open:     openSource,
				Config:   sim.DefaultTLBOnlyConfig(c.Instr),
				Cache:    env.Streams,
			}, pf)
			if err != nil {
				return nil, err
			}
			rows := make([]policyRow, len(rs))
			for i, res := range rs {
				rows[i] = policyRow{MPKI: res.MPKI, Efficiency: res.Efficiency, TableRate: res.TableAccessRate}
			}
			return rows, nil
		},
	}}
	grouped, err := engine.Run(env.Ctx, jobs, engine.Config{Workers: c.Workers, Sink: env.Sink, Checkpoint: env.Checkpoint})
	if err != nil {
		return c.Fail(err)
	}
	results := grouped[0]

	var rows [][]string
	base := results[0]
	for i, res := range results {
		if *timing {
			rows = append(rows, []string{
				names[i],
				fmt.Sprintf("%.4f", res.MPKI),
				fmt.Sprintf("%+.2f%%", stats.Reduction(base.MPKI, res.MPKI)),
				fmt.Sprintf("%.4f", res.IPC),
				fmt.Sprintf("%+.2f%%", (res.IPC/base.IPC-1)*100),
				fmt.Sprintf("%.3f", res.BranchAccuracy),
			})
		} else {
			rows = append(rows, []string{
				names[i],
				fmt.Sprintf("%.4f", res.MPKI),
				fmt.Sprintf("%+.2f%%", stats.Reduction(base.MPKI, res.MPKI)),
				fmt.Sprintf("%.3f", res.Efficiency),
				fmt.Sprintf("%.3f", res.TableRate),
			})
		}
	}
	if *timing {
		err = stats.Table(stdout, []string{"policy", "MPKI", "vs first", "IPC", "speedup", "branch acc"}, rows)
	} else {
		err = stats.Table(stdout, []string{"policy", "MPKI", "vs first", "efficiency", "table rate"}, rows)
	}
	if err != nil {
		return c.Fail(err)
	}
	return 0
}

// timingRows runs one pipeline machine carrying every policy in
// factories as its L2 TLB policy over one trace.
func timingRows(open func() (trace.Source, error), factories []sim.NamedFactory, cfg pipeline.Config) ([]policyRow, error) {
	src, err := open()
	if err != nil {
		return nil, err
	}
	pols := make([]tlb.Policy, len(factories))
	for i, f := range factories {
		pols[i] = f.New()
	}
	m, err := pipeline.NewMulti(cfg, pols, func() tlb.Policy { return policy.NewLRU() })
	if err != nil {
		return nil, err
	}
	rs, err := m.RunMulti(src)
	if err != nil {
		return nil, err
	}
	rows := make([]policyRow, len(rs))
	for i, res := range rs {
		rows[i] = policyRow{MPKI: res.MPKI, IPC: res.IPC, BranchAccuracy: res.BranchAccuracy}
	}
	return rows, nil
}

// policyRow is one rendered measurement; exported fields so it
// survives a JSON checkpoint round-trip.
type policyRow struct {
	MPKI           float64
	IPC            float64
	Efficiency     float64
	TableRate      float64
	BranchAccuracy float64
}
