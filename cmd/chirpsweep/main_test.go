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
	want := []string{"capturedir", "capturedir-max-bytes", "checkpoint", "cpuprofile", "instr", "l2cache",
		"manifest", "memprofile", "metrics", "n", "progress", "seed", "sweep", "workers", "workload-spec"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestSuitePrefix pins what -n selects: a negative size is refused,
// and 0 or a size above the suite's select the whole suite.
func TestSuitePrefix(t *testing.T) {
	if code, stdout, _ := runTool("-sweep", "ways", "-n", "-1"); code != 2 || stdout != "" {
		t.Errorf("-n -1: exit %d, stdout %q; want exit 2 and no output", code, stdout)
	}
	sweep := func(n string) string {
		t.Helper()
		code, stdout, stderr := runTool("-sweep", "ways", "-instr", "20000", "-n", n)
		if code != 0 {
			t.Fatalf("-n %s: exit %d: %s", n, code, stderr)
		}
		return stdout
	}
	full := sweep("870")
	if strings.Contains(full, "NaN") {
		t.Fatalf("-n 870 printed NaN:\n%s", full)
	}
	for _, n := range []string{"0", "2000"} {
		if got := sweep(n); got != full {
			t.Errorf("-n %s printed\n%s\nthe full suite (-n 870)\n%s", n, got, full)
		}
	}
	if prefix := sweep("4"); prefix == full {
		t.Error("-n 4 printed the full suite's table")
	}
}

// TestRefusedCommandLines pins exit status 2 for command lines the
// tool refuses, and that a refused run opens none of its files.
func TestRefusedCommandLines(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	for _, args := range [][]string{
		{"-sweep", "bogus", "-checkpoint", ckpt},
		{"-l2cache", "-1", "-checkpoint", ckpt},
		{"-seed", "1", "-checkpoint", ckpt},
		{"-instr", "0", "-checkpoint", ckpt},
	} {
		if code, stdout, _ := runTool(args...); code != 2 || stdout != "" {
			t.Errorf("chirpsweep %v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
		if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
			t.Fatalf("chirpsweep %v left %s behind (stat: %v)", args, ckpt, err)
		}
	}
}
