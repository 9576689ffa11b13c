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

	"github.com/chirplab/chirp/internal/engine"
)

func runTool(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// withoutFooters drops the wall-clock "-- <exp> done in <d> --" lines.
func withoutFooters(out string) string {
	return regexp.MustCompile(`(?m)^-- \S+ done in .* --$`).ReplaceAllString(out, "")
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
	want := []string{"capturedir", "capturedir-max-bytes", "checkpoint", "cpuprofile", "exp", "instr",
		"l2cache", "manifest", "memprofile", "metrics", "n", "penalty", "progress", "seed", "workers",
		"workload-spec"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestStoreStatesAgree runs Fig. 7 in memory, into an empty
// -capturedir and over the filled one: the output must not depend on
// where the streams came from.
func TestStoreStatesAgree(t *testing.T) {
	args := []string{"-exp", "fig7", "-n", "8", "-instr", "400000"}
	code, want, stderr := runTool(args...)
	if code != 0 {
		t.Fatalf("in memory: exit %d: %s", code, stderr)
	}
	want = withoutFooters(want)
	dir := t.TempDir()
	for _, state := range []string{"empty store", "filled store"} {
		code, got, stderr := runTool(append(args, "-capturedir", dir)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", state, code, stderr)
		}
		if got = withoutFooters(got); got != want {
			t.Errorf("%s printed\n%s\nin memory\n%s", state, got, want)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) == 0 {
		t.Error("-capturedir run left the store empty")
	}
}

// TestCheckpointMetaCompatible resumes from a checkpoint whose header
// carries the run fingerprint earlier versions of chirpexp wrote: the
// resumed run must restore every job and re-run none.
func TestCheckpointMetaCompatible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := engine.Open(path, "chirpexp n=8 instr=200000 penalty=150 spec=")
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	args := []string{"-exp", "fig7", "-n", "8", "-instr", "200000", "-checkpoint", path, "-progress", "1h"}
	code, first, stderr := runTool(args...)
	if code != 0 {
		t.Fatalf("first run: exit %d: %s", code, stderr)
	}
	code, again, stderr := runTool(args...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "engine: 8/8 jobs, 8 resumed in ") {
		t.Errorf("resumed run re-ran jobs; progress:\n%s", stderr)
	}
	if withoutFooters(again) != withoutFooters(first) {
		t.Errorf("resumed output differs:\n%s\nfirst run:\n%s", again, first)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rows := bytes.Count(data, []byte("\n")) - 1; rows != 8 {
		t.Errorf("checkpoint holds %d rows, want one per workload (8)", rows)
	}
}

func TestRefusedCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "-1"},
		{"-l2cache", "-1"},
		{"-exp", "fig7,no-such-figure"},
		{"-seed", "1"},
		{"-exp", "fig7", "-n", "2", "-instr", "0"},
		{"-exp", "consolidated", "-instr", "0"},
	} {
		if code, stdout, _ := runTool(args...); code != 2 || stdout != "" {
			t.Errorf("chirpexp %v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
	}
}

// TestStartFailures pins exit status 1, with the reason on stderr, for
// a run whose resources cannot be opened.
func TestStartFailures(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "other.ckpt")
	ck, err := engine.Open(ckpt, "some other run")
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	missing := filepath.Join(dir, "no-such-dir", "out")
	for _, tc := range []struct {
		args []string
		want []string // substrings of stderr
	}{
		{[]string{"-checkpoint", ckpt}, []string{`"some other run"`, `"chirpexp n=2 instr=20000 penalty=150 spec="`}},
		{[]string{"-cpuprofile", missing}, []string{missing}},
		{[]string{"-manifest", missing}, []string{missing}},
		{[]string{"-cpuprofile", filepath.Join(dir, "cpu.pprof"), "-checkpoint", ckpt}, []string{`"some other run"`}},
	} {
		args := append([]string{"-exp", "fig7", "-n", "2", "-instr", "20000"}, tc.args...)
		code, stdout, stderr := runTool(args...)
		if code != 1 || stdout != "" {
			t.Errorf("chirpexp %v: exit %d, stdout %q; want exit 1 and no output", tc.args, code, stdout)
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("chirpexp %v: stderr %q does not name %s", tc.args, stderr, w)
			}
		}
	}
}
