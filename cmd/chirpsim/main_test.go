package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

// runTool runs the command in-process and returns its exit status and
// output streams.
func runTool(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestFlagNames pins the command's flag set: adding or dropping a flag
// is a deliberate interface change.
func TestFlagNames(t *testing.T) {
	code, _, usage := runTool("-h")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		got = append(got, m[1])
	}
	sort.Strings(got)
	want := []string{"capturedir", "capturedir-max-bytes", "checkpoint", "cpuprofile", "describe", "instr",
		"l2cache", "list", "manifest", "memprofile", "metrics", "penalty", "policies", "progress", "seed",
		"timing", "trace", "workers", "workload", "workload-spec"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestTLBOnlyMatchesReference checks chirpsim's TLB-only table against
// one built from the direct reference driver, sim.RunTLBOnly, per
// policy — for a suite workload, a trace file and a spec tenant view —
// in memory, into an empty -capturedir and over the filled one.
func TestTLBOnlyMatchesReference(t *testing.T) {
	const instr = 300_000
	policies := []string{"lru", "random", "srrip", "ship", "ghrp", "chirp"}
	tracePath := filepath.Join(t.TempDir(), "db-001.chtr")
	if _, _, err := trace.WriteFile(tracePath, trace.NewLimit(workloads.ByName("db-001").Source(), instr)); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join("..", "..", "examples", "specs", "multitenant.json")
	s, err := spec.Resolve(specPath)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := spec.Compile(s, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		open func() (trace.Source, error)
	}{
		{"workload", []string{"-workload", "db-003"},
			func() (trace.Source, error) { return workloads.ByName("db-003").Source(), nil }},
		{"trace", []string{"-trace", tracePath},
			func() (trace.Source, error) { return trace.OpenFile(tracePath) }},
		{"tenant", []string{"-workload-spec", specPath, "-workload", "saas-pod/analytics"},
			func() (trace.Source, error) { return compiled.ByName("saas-pod/analytics").Source(), nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceTable(t, tc.open, policies, instr)
			base := append(tc.args, "-policies", strings.Join(policies, ","), "-instr", fmt.Sprint(instr))
			dir := t.TempDir()
			for _, state := range []struct {
				name string
				args []string
			}{{"memory", nil}, {"empty store", []string{"-capturedir", dir}}, {"filled store", []string{"-capturedir", dir}}} {
				code, got, stderr := runTool(append(base, state.args...)...)
				if code != 0 {
					t.Fatalf("%s: exit %d: %s", state.name, code, stderr)
				}
				if got != want {
					t.Errorf("%s: chirpsim printed\n%s\nreference\n%s", state.name, got, want)
				}
			}
		})
	}
}

// referenceTable renders chirpsim's TLB-only table from one RunTLBOnly
// run per policy.
func referenceTable(t *testing.T, open func() (trace.Source, error), policies []string, instr uint64) string {
	t.Helper()
	factories, err := sim.Factories(policies)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultTLBOnlyConfig(instr)
	var rows [][]string
	var baseMPKI float64
	for i, f := range factories {
		src, err := open()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunTLBOnly(trace.NewLimit(src, instr), f.New(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			baseMPKI = res.MPKI
		}
		rows = append(rows, []string{f.Name, fmt.Sprintf("%.4f", res.MPKI),
			fmt.Sprintf("%+.2f%%", stats.Reduction(baseMPKI, res.MPKI)),
			fmt.Sprintf("%.3f", res.Efficiency), fmt.Sprintf("%.3f", res.TableAccessRate)})
	}
	var buf bytes.Buffer
	if err := stats.Table(&buf, []string{"policy", "MPKI", "vs first", "efficiency", "table rate"}, rows); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRefusedCommandLines pins exit status 2 for command lines the
// tool refuses, before any run starts.
func TestRefusedCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "db-000", "-l2cache", "-1"},
		{"-workload", "db-000", "-seed", "7"},
		{"-workload", "no-such-workload"},
		{"-workload", "db-000", "-policies", "lru,no-such-policy"},
		{"-workload-spec", "default", "-trace", "t.chtr"},
		{"-workload", "db-000", "-instr", "0"},
		{},
	} {
		if code, stdout, _ := runTool(args...); code != 2 || stdout != "" {
			t.Errorf("chirpsim %v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
	}
}
