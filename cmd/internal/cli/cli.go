// Package cli is the one front end of the chirp command-line tools
// (chirpsim, chirpsweep, chirpexp, tracegen). It registers each shared
// flag once, with one help text, resolves -workload-spec/-seed and the
// -n suite prefix, and opens a run's shared resources — signal
// context, profiles, metrics server, manifest, progress reporter,
// checkpoint and L2 event-stream cache — behind one teardown.
//
// Exit statuses are shared too: 2 for a command line the tool refuses,
// 1 for a run that fails.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

// Group selects optional shared flags. Every tool takes -workload-spec,
// -seed, -instr, -workers, -checkpoint, -progress and -cpuprofile.
type Group uint

const (
	// Workload adds -workload.
	Workload Group = 1 << iota
	// Prefix adds -n.
	Prefix
	// Penalty adds -penalty.
	Penalty
	// Streams adds -l2cache, -capturedir and -capturedir-max-bytes.
	Streams
	// Telemetry adds -metrics, -manifest and -memprofile.
	Telemetry
)

// Defaults are the per-tool default values of the shared flags.
type Defaults struct {
	Instr uint64 // -instr
	N     int    // -n, with Prefix
}

// Command is one tool's parsed shared flags. Tool-specific flags go on
// Flags before Parse.
type Command struct {
	Flags *flag.FlagSet

	Workload      string
	WorkloadSpec  string
	Seed          uint64
	Instr         uint64
	N             int
	Penalty       uint64
	Workers       int
	Checkpoint    string
	Progress      time.Duration
	CPUProfile    string
	MemProfile    string
	Metrics       string
	Manifest      string
	L2Cache       int64
	CaptureDir    string
	CaptureDirMax int64

	// Compiled is the -workload-spec population after Parse; nil
	// without the flag.
	Compiled *spec.Compiled

	name    string
	stderr  io.Writer
	seedSet bool
}

// New registers the shared flags of groups on a fresh flag set named
// after the tool; errors and usage go to stderr.
func New(name string, stderr io.Writer, groups Group, def Defaults) *Command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &Command{Flags: fs, name: name, stderr: stderr}
	if groups&Workload != 0 {
		fs.StringVar(&c.Workload, "workload", "", "workload name: a suite workload (e.g. db-000) or a compiled workload of -workload-spec")
	}
	fs.StringVar(&c.WorkloadSpec, "workload-spec", "", "workload spec: a built-in registry name (e.g. \"default\") or a JSON spec file; its compiled workloads replace the built-in suite")
	fs.Uint64Var(&c.Seed, "seed", 0, "master seed for -workload-spec; overrides the spec document's seed")
	fs.Uint64Var(&c.Instr, "instr", def.Instr, "instructions per trace")
	if groups&Prefix != 0 {
		fs.IntVar(&c.N, "n", def.N, fmt.Sprintf("suite prefix size: the first n workloads of the %d-workload suite or of the -workload-spec population (0, or more than it holds, = all of it)", workloads.SuiteSize))
	}
	if groups&Penalty != 0 {
		fs.Uint64Var(&c.Penalty, "penalty", 150, "L2 TLB miss penalty in cycles (timing runs)")
	}
	fs.IntVar(&c.Workers, "workers", 0, "parallel engine jobs (0 = GOMAXPROCS)")
	fs.StringVar(&c.Checkpoint, "checkpoint", "", "JSONL checkpoint file: completed jobs are restored from it instead of re-run and new ones appended, so a killed run resumes where it stopped")
	fs.DurationVar(&c.Progress, "progress", 0, "print a progress line to stderr at this interval (e.g. 10s; 0 = off)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	if groups&Telemetry != 0 {
		fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
		fs.StringVar(&c.Metrics, "metrics", "", "serve /metrics (Prometheus), /debug/vars (JSON) and /debug/pprof on this address (e.g. localhost:8080)")
		fs.StringVar(&c.Manifest, "manifest", "", "append a JSONL run manifest (run identity + per-job metric deltas) to this file")
	}
	if groups&Streams != 0 {
		fs.Int64Var(&c.L2Cache, "l2cache", 0, fmt.Sprintf("in-memory L2 event-stream cache budget in MiB, shared by every run of the process (0 = %d MiB default)", l2stream.DefaultBudget>>20))
		fs.StringVar(&c.CaptureDir, "capturedir", "", "persistent capture directory: captured L2 event streams are stored here with their derived views, one content-addressed file per capture, and reused by later runs in any process sharing the directory")
		fs.Int64Var(&c.CaptureDirMax, "capturedir-max-bytes", 0, "byte budget for -capturedir: least-recently-used store files (one per capture, holding its derived views; files of older codec versions count too) are evicted to stay under it (0 = unbounded)")
	}
	return c
}

// Parse parses args and resolves the shared flags. When ok is false
// the problem has been reported on stderr and the tool exits with code.
func (c *Command) Parse(args []string) (code int, ok bool) {
	if err := c.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	// Master-seed supremacy needs set-detection, not just a value: an
	// explicit `-seed 0` must still override the document's seed.
	c.Flags.Visit(func(f *flag.Flag) { c.seedSet = c.seedSet || f.Name == "seed" })
	switch {
	case c.seedSet && c.WorkloadSpec == "":
		return c.Usage("-seed requires -workload-spec (suite workload seeds are part of their identity)"), false
	case c.Instr == 0:
		return c.Usage("-instr must be positive"), false
	case c.N < 0:
		return c.Usage("-n must not be negative"), false
	case c.L2Cache < 0:
		return c.Usage("-l2cache must not be negative"), false
	}
	if c.WorkloadSpec != "" {
		s, err := spec.Resolve(c.WorkloadSpec)
		if err == nil {
			c.Compiled, err = spec.Compile(s, spec.Options{Seed: c.Seed, SeedSet: c.seedSet})
		}
		if err != nil {
			return c.Usage("%v", err), false
		}
	}
	return 0, true
}

// Usage reports a refused command line and returns its exit status.
func (c *Command) Usage(format string, args ...any) int {
	fmt.Fprintf(c.stderr, c.name+": "+format+"\n", args...)
	return 2
}

// Fail reports a failed run and returns its exit status.
func (c *Command) Fail(err error) int {
	fmt.Fprintf(c.stderr, "%s: %v\n", c.name, err)
	return 1
}

// Lookup resolves a workload name against the compiled spec when one
// is loaded, the built-in suite otherwise; nil when unknown.
func (c *Command) Lookup(name string) *workloads.Workload {
	if c.Compiled != nil {
		return c.Compiled.ByName(name)
	}
	return workloads.ByName(name)
}

// Suite returns the workloads -n selects: the first N of the compiled
// spec's population, or of the built-in suite; all of it when N is 0
// or exceeds its size.
func (c *Command) Suite() []*workloads.Workload {
	if c.Compiled != nil {
		ws := c.Compiled.Workloads()
		if c.N > 0 && c.N < len(ws) {
			return ws[:c.N]
		}
		return ws
	}
	if c.N <= 0 || c.N > workloads.SuiteSize {
		return workloads.Suite()
	}
	return workloads.SuiteN(c.N)
}

// Env is a started run's shared state.
type Env struct {
	// Ctx is cancelled by SIGINT or SIGTERM: the engine stops
	// dispatching, drains in-flight jobs and leaves the checkpoint
	// resumable.
	Ctx        context.Context
	Sink       engine.Sink // nil without -progress and -manifest
	Checkpoint *engine.Checkpoint
	// Streams is the L2 event-stream cache, shared by every run of the
	// process; nil unless Start was asked for it.
	Streams *l2stream.Cache
}

// Start opens the run's resources: meta fingerprints the run in the
// checkpoint and the manifest, and streams asks for the stream cache
// (tools with the Streams group only). teardown releases everything in
// reverse order, reporting errors on stderr; on error Start has
// already released what it opened.
func (c *Command) Start(meta string, streams bool) (Env, func(), error) {
	var env Env
	var closers []func() error
	teardown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil {
				fmt.Fprintf(c.stderr, "%s: %v\n", c.name, err)
			}
		}
	}
	fail := func(err error) (Env, func(), error) {
		teardown()
		return Env{}, nil, err
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	closers = append(closers, func() error { stopSignals(); return nil })
	env.Ctx = ctx

	stopProf, err := StartProfiles(c.CPUProfile, c.MemProfile)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, stopProf)

	if c.Metrics != "" {
		bound, stopMetrics, err := obs.Serve(c.Metrics, obs.Default)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, stopMetrics)
		fmt.Fprintf(c.stderr, "%s: metrics on http://%s/metrics\n", c.name, bound)
	}

	var sinks []engine.Sink
	if c.Manifest != "" {
		man, err := obs.OpenManifest(c.Manifest, obs.Default, meta)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, man.Close)
		sinks = append(sinks, engine.ManifestSink(man))
	}
	if c.Progress > 0 {
		sinks = append(sinks, engine.NewReporter(c.stderr, c.Progress))
	}
	if len(sinks) > 0 {
		env.Sink = engine.MultiSink(sinks...)
	}

	if c.Checkpoint != "" {
		ck, err := engine.Open(c.Checkpoint, meta)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, ck.Close)
		env.Checkpoint = ck
	}

	if streams {
		// One cache serves every suite call of the process, so each
		// workload's trace is generated and L1-filtered once; with
		// -capturedir the captures also persist, so a re-run (or
		// another process) skips the capture passes entirely.
		if c.CaptureDir == "" {
			env.Streams = l2stream.NewCache(c.L2Cache << 20)
		} else {
			if env.Streams, err = l2stream.NewPersistent(c.L2Cache<<20, c.CaptureDir); err != nil {
				return fail(err)
			}
			env.Streams.SetStoreMaxBytes(c.CaptureDirMax)
		}
		closers = append(closers, env.Streams.Close)
	}
	return env, teardown, nil
}
