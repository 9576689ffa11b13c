// Command chirpexp regenerates the paper's evaluation artifacts: every
// figure and table of §VI plus this reproduction's extensions.
//
//	chirpexp -exp fig7 -n 870 -instr 2000000
//	chirpexp -exp all  -n 128 -instr 1000000
//
// Experiments: fig1 fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 table1
// table2, the extensions opt walker baselines mixed consolidated
// prefetch, or all. MPKI experiments default to the full suite; timing
// experiments are much slower, so scale -n down (the shapes stabilise
// quickly).
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/chirplab/chirp/cmd/internal/cli"
	"github.com/chirplab/chirp/internal/experiments"
)

// report adapts an experiment that returns a result to a runner: run
// it, then render the result.
func report[T interface{ Write(io.Writer) error }](f func(experiments.Options) (T, error)) func(experiments.Options, io.Writer) error {
	return func(o experiments.Options, w io.Writer) error {
		r, err := f(o)
		if err != nil {
			return err
		}
		return r.Write(w)
	}
}

var runners = []struct {
	name, desc string
	run        func(experiments.Options, io.Writer) error
}{
	{"fig1", "TLB efficiency heat map (§VI-D)", report(experiments.Fig1)},
	{"fig2", "speedup vs PC history length (§III)", report(experiments.Fig2)},
	{"fig3", "ADALINE PC-bit salience (§III-A)", report(experiments.Fig3)},
	{"fig6", "feature/optimisation ablation (§III)", report(experiments.Fig6)},
	{"fig7", "MPKI S-curve and averages (§VI-A)", report(experiments.Fig7)},
	{"fig8", "speedup at the headline walk penalty (§VI-C)", report(experiments.Fig8)},
	{"fig9", "prediction-table size sweep (§VI-F)", report(experiments.Fig9)},
	{"fig10", "speedup vs walk penalty (§VI-C)", report(experiments.Fig10)},
	{"fig11", "prediction-table access-rate density (§VI-B)", report(experiments.Fig11)},
	{"table1", "CHiRP storage budget", report(experiments.Table1)},
	{"table2", "simulation parameters", experiments.Table2},
	{"opt", "Bélády OPT upper bound (extension X1)", report(experiments.OptBound)},
	{"walker", "radix page-walker vs fixed penalty (extension X2)", report(experiments.Walker)},
	{"baselines", "extended baseline comparison (extension X3)", report(experiments.Baselines)},
	{"mixed", "mixed 4KB/2MB page sizes (extension X4)", report(experiments.Mixed)},
	{"consolidated", "ASID-tagged consolidation (extension X5)", report(experiments.Consolidated)},
	{"prefetch", "sequential prefetch × replacement (extension X6)", report(experiments.Prefetch)},
	{"categories", "per-category MPKI breakdown", report(experiments.Categories)},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("chirpexp", stderr, cli.Prefix|cli.Penalty|cli.Streams|cli.Telemetry, cli.Defaults{Instr: 2_000_000, N: 0})
	exp := c.Flags.String("exp", "fig7", "experiment id (or comma list, or 'all')")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	want := map[string]bool{}
	known := map[string]bool{}
	for _, r := range runners {
		known[r.name] = true
		want[r.name] = *exp == "all"
	}
	if *exp != "all" {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				return c.Usage("unknown experiment %q", name)
			}
			want[name] = true
		}
	}

	// The same fingerprint guards the checkpoint and names the manifest
	// run: resumed rows must be exchangeable with fresh ones. The
	// experiment list is deliberately excluded: scopes already namespace
	// per-experiment keys, so one file covers any subset of `-exp all`.
	specLabel := ""
	if c.Compiled != nil {
		specLabel = c.Compiled.Hash
	}
	env, teardown, err := c.Start(fmt.Sprintf("chirpexp n=%d instr=%d penalty=%d spec=%s", c.N, c.Instr, c.Penalty, specLabel), true)
	if err != nil {
		return c.Fail(err)
	}
	defer teardown()
	// One shared stream cache means `-exp all` captures each workload's
	// L2 event stream once across every MPKI experiment.
	o := experiments.Options{
		Workloads:    c.N,
		Instructions: c.Instr,
		WalkPenalty:  c.Penalty,
		Workers:      c.Workers,
		Ctx:          env.Ctx,
		Sink:         env.Sink,
		Checkpoint:   env.Checkpoint,
		StreamCache:  env.Streams,
	}
	if c.Compiled != nil {
		// The whole population: experiments take their -n prefix of
		// it, and Mixed looks past the prefix for eligible workloads.
		o.Suite = c.Compiled.Workloads()
	}
	for _, r := range runners {
		if !want[r.name] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(stdout, "== %s: %s ==\n", r.name, r.desc)
		if err := r.run(o, stdout); err != nil {
			return c.Fail(fmt.Errorf("%s: %w", r.name, err))
		}
		fmt.Fprintf(stdout, "-- %s done in %v --\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
