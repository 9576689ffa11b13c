package cli

import (
	"io"
	"os"
	"testing"
)

func TestStartProfilesWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have content.
	sink := make([]byte, 0, 1<<16)
	for i := 0; i < 1000; i++ {
		sink = append(sink, byte(i))
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilesNoOp(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("no-op stop returned %v", err)
	}
}

// TestStartFailureReleases checks that a Start which fails part-way
// returns no teardown and has already released what it opened: the CPU
// profile it started is stopped, so a second one can start.
func TestStartFailureReleases(t *testing.T) {
	dir := t.TempDir()
	c := New("test", io.Discard, Telemetry, Defaults{Instr: 1000})
	if code, ok := c.Parse([]string{"-cpuprofile", dir + "/cpu.pprof", "-manifest", dir + "/no-such-dir/m.jsonl"}); !ok {
		t.Fatalf("Parse refused the command line (exit %d)", code)
	}
	env, teardown, err := c.Start("meta", false)
	if err == nil || teardown != nil || env.Ctx != nil {
		t.Fatalf("Start = (ctx %v, teardown set %v, err %v); want only an error", env.Ctx, teardown != nil, err)
	}
	stop, err := StartProfiles(dir+"/again.pprof", "")
	if err != nil {
		t.Fatalf("CPU profile still running after a failed Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
