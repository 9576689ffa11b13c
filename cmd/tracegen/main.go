// Command tracegen materialises suite workloads into binary trace
// files (the "CHTR" format internal/trace defines), so runs can be
// replayed or inspected without the generators.
//
//	tracegen -workload db-000 -instr 5000000 -o db-000.chtr
//	tracegen -all -n 16 -instr 1000000 -dir traces/
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/chirplab/chirp/cmd/internal/cli"
	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("tracegen", stderr, cli.Workload|cli.Prefix, cli.Defaults{Instr: 1_000_000, N: 8})
	out := c.Flags.String("o", "", "output file (default <workload>.chtr)")
	all := c.Flags.Bool("all", false, "materialise a suite prefix (-n) instead of one workload")
	dir := c.Flags.String("dir", ".", "output directory with -all")
	if code, ok := c.Parse(args); !ok {
		return code
	}

	var w *workloads.Workload
	switch {
	case *all:
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return c.Fail(err)
		}
	case c.Workload != "":
		if w = c.Lookup(c.Workload); w == nil {
			return c.Usage("unknown workload %q", c.Workload)
		}
		// A checkpoint row stands for a file of the -all run; a single
		// trace always rewrites its -o file.
		c.Checkpoint = ""
	default:
		return c.Usage("-workload or -all is required")
	}

	// A checkpointed row stands in for the file it describes: resume
	// trusts that a recorded trace is already on disk and skips
	// regenerating it.
	env, teardown, err := c.Start(fmt.Sprintf("tracegen n=%d instr=%d dir=%s", c.N, c.Instr, *dir), false)
	if err != nil {
		return c.Fail(err)
	}
	defer teardown()

	write := func(w *workloads.Workload, path string) (traceSummary, error) {
		records, instructions, err := trace.WriteFile(path, trace.NewLimit(w.Source(), c.Instr))
		if err != nil {
			return traceSummary{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return traceSummary{}, err
		}
		return traceSummary{Path: path, Records: records, Instructions: instructions, Bytes: fi.Size()}, nil
	}

	var results []traceSummary
	if *all {
		ws := c.Suite()
		jobs := make([]engine.Job[traceSummary], 0, len(ws))
		for _, w := range ws {
			w := w
			jobs = append(jobs, engine.Job[traceSummary]{
				Key: engine.Key{Workload: w.Name, Policy: "tracegen"},
				Run: func(context.Context) (traceSummary, error) {
					return write(w, filepath.Join(*dir, fileName(w.Name)))
				},
			})
		}
		results, err = engine.Run(env.Ctx, jobs, engine.Config{Workers: c.Workers, Sink: env.Sink, Checkpoint: env.Checkpoint})
	} else {
		path := *out
		if path == "" {
			path = fileName(w.Name)
		}
		var s traceSummary
		s, err = write(w, path)
		results = []traceSummary{s}
	}
	if err != nil {
		return c.Fail(err)
	}
	for _, s := range results {
		fmt.Fprintf(stdout, "%s: %d records, %d instructions, %d bytes\n", s.Path, s.Records, s.Instructions, s.Bytes)
	}
	return 0
}

// fileName maps a workload name to its default trace file name;
// spec-compiled tenant views carry "/" in their names, which must not
// become directories.
func fileName(workload string) string {
	return strings.ReplaceAll(workload, "/", "_") + ".chtr"
}

// traceSummary records one materialised trace; exported fields so it
// survives a JSON checkpoint round-trip.
type traceSummary struct {
	Path         string
	Records      uint64
	Instructions uint64
	Bytes        int64
}
