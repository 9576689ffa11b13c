package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

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
	want := []string{"all", "checkpoint", "cpuprofile", "dir", "instr", "n", "o", "progress", "seed",
		"workers", "workload", "workload-spec"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestSuitePrefix pins what -n selects with -all: a negative size is
// refused, and 0 or a size above the suite's write the whole suite.
func TestSuitePrefix(t *testing.T) {
	for _, tc := range []struct {
		n     string
		code  int
		files int
	}{{"-1", 2, 0}, {"3", 0, 3}, {"0", 0, 870}, {"2000", 0, 870}} {
		dir := filepath.Join(t.TempDir(), "traces")
		code, stdout, stderr := runTool("-all", "-n", tc.n, "-instr", "1000", "-dir", dir)
		if code != tc.code {
			t.Errorf("-n %s: exit %d, want %d: %s", tc.n, code, tc.code, stderr)
			continue
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.chtr"))
		if len(files) != tc.files || strings.Count(stdout, "\n") != tc.files {
			t.Errorf("-n %s: %d files, %d summary lines; want %d", tc.n, len(files), strings.Count(stdout, "\n"), tc.files)
		}
	}
}

// TestSingleWorkload writes one named trace to -o and leaves no
// checkpoint behind: -checkpoint applies to -all runs only.
func TestSingleWorkload(t *testing.T) {
	dir := t.TempDir()
	out, ckpt := filepath.Join(dir, "t.chtr"), filepath.Join(dir, "run.ckpt")
	code, stdout, stderr := runTool("-workload", "db-000", "-instr", "5000", "-o", out, "-checkpoint", ckpt)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, out+": ") {
		t.Errorf("summary %q does not name %s", stdout, out)
	}
	if _, err := os.Stat(out); err != nil {
		t.Error(err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("single-trace run touched the checkpoint: %v", err)
	}
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "db-000", "-instr", "0", "-o", out},
	} {
		if code, stdout, _ := runTool(args...); code != 2 || stdout != "" {
			t.Errorf("tracegen %v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
	}
}
