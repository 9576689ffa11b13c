package sim

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// persistentStreamFor loads (or captures) a workload's stream through a
// fresh persistent cache over dir, so repeated calls against the same
// dir exercise the warm disk path.
func persistentStreamFor(t *testing.T, dir, name string, cfg TLBOnlyConfig) (*l2stream.Cache, *l2stream.Stream) {
	t.Helper()
	cache, err := l2stream.NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	stream, err := StreamFor(cache, name, "", cfg, func() (trace.Source, error) {
		w := workloads.ByName(name)
		if w == nil {
			t.Fatalf("workload %s missing", name)
		}
		return trace.NewLimit(w.Source(), cfg.Instructions), nil
	})
	if err != nil {
		t.Fatalf("stream for %s: %v", name, err)
	}
	return cache, stream
}

// TestReplayMultiPersistentWarmEquivalence gates the warm-persistent
// path: a first fused replay persists derived sidecars next to the
// capture; a second process (modelled by a fresh cache over the same
// directory) loads the stream and its views from disk and must still
// match every policy's direct run bit for bit.
func TestReplayMultiPersistentWarmEquivalence(t *testing.T) {
	const instructions = 200000
	for _, pd := range []int{0, 4} {
		cfg := DefaultTLBOnlyConfig(instructions)
		cfg.PrefetchDistance = pd
		for _, wname := range []string{"db-003", "spec-000"} {
			dir := t.TempDir()

			_, cold := persistentStreamFor(t, dir, wname, cfg)
			if _, err := ReplayMulti(cold, newPolicies(t, PolicyNames()), cfg); err != nil {
				t.Fatalf("%s pd=%d cold fused: %v", wname, pd, err)
			}
			if n := len(sidecarFiles(t, dir)); n == 0 {
				t.Fatalf("%s pd=%d: cold fused replay left no derived sidecars", wname, pd)
			}

			_, warm := persistentStreamFor(t, dir, wname, cfg)
			fused, err := ReplayMulti(warm, newPolicies(t, PolicyNames()), cfg)
			if err != nil {
				t.Fatalf("%s pd=%d warm fused: %v", wname, pd, err)
			}
			want := directResults(t, wname, PolicyNames(), cfg)
			for i, pname := range PolicyNames() {
				if fused[i] != want[i] {
					t.Errorf("%s/%s pd=%d: warm-persistent fused replay diverged\n direct: %+v\n fused:  %+v",
						wname, pname, pd, want[i], fused[i])
				}
			}
		}
	}
}

// TestReplayMultiParallelEquivalence forces the worker pool wider than
// this machine may be (the public entry point sizes it to GOMAXPROCS),
// so the concurrent scheduling path is exercised even on one CPU.
func TestReplayMultiParallelEquivalence(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(200000)
	cfg.PrefetchDistance = 4
	stream := captureFor(t, "web-001", cfg)
	fused, err := replayMulti(stream, newPolicies(t, PolicyNames()), cfg, 4)
	if err != nil {
		t.Fatalf("parallel fused replay: %v", err)
	}
	want := directResults(t, "web-001", PolicyNames(), cfg)
	for i, pname := range PolicyNames() {
		if fused[i] != want[i] {
			t.Errorf("%s: parallel fused replay diverged\n direct: %+v\n fused:  %+v", pname, want[i], fused[i])
		}
	}
}

// TestReplayMultiDerivedCorruptionRecovers: damaged or truncated
// sidecars must be treated as absent — the views rebuild from the
// stream and the results do not change.
func TestReplayMultiDerivedCorruptionRecovers(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(150000)
	cfg.PrefetchDistance = 4
	dir := t.TempDir()

	_, cold := persistentStreamFor(t, dir, "sci-002", cfg)
	want, err := ReplayMulti(cold, newPolicies(t, PolicyNames()), cfg)
	if err != nil {
		t.Fatal(err)
	}

	sidecars := sidecarFiles(t, dir)
	if len(sidecars) == 0 {
		t.Fatal("fused replay left no derived sidecars")
	}
	for i, p := range sidecars {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			data[len(data)/2] ^= 0x40 // bit damage
		} else {
			data = data[:len(data)/3] // truncation
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, warm := persistentStreamFor(t, dir, "sci-002", cfg)
	fused, err := ReplayMulti(warm, newPolicies(t, PolicyNames()), cfg)
	if err != nil {
		t.Fatalf("fused replay over corrupt sidecars: %v", err)
	}
	for i, pname := range PolicyNames() {
		if fused[i] != want[i] {
			t.Errorf("%s: replay after sidecar corruption diverged\n before: %+v\n after:  %+v", pname, want[i], fused[i])
		}
	}
}

// TestStoreGCDuringReplay: the persistent store's size-budget GC may
// delete a stream's .l2s and .l2d files while the stream is in use —
// here, one byte of budget evicts every group as soon as it is written.
// Replay must not depend on those files: a stream obtained before the
// GC replays all six paper policies bit-identically to RunTLBOnly, a
// second cache on the directory (another process) recaptures cleanly,
// and none of it counts as a disk error.
func TestStoreGCDuringReplay(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(150000)
	cfg.PrefetchDistance = 4
	dir := t.TempDir()
	diskErrors := obs.Default.Counter("chirp_l2stream_cache_disk_errors_total", "")
	misses := obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	errors0 := diskErrors.Value()

	cache, a := persistentStreamFor(t, dir, "db-003", cfg)
	cache.SetStoreMaxBytes(1)
	if _, err := StreamFor(cache, "web-001", "", cfg, func() (trace.Source, error) {
		return trace.NewLimit(workloads.ByName("web-001").Source(), cfg.Instructions), nil
	}); err != nil {
		t.Fatal(err)
	}
	if files := storeFiles(t, dir); len(files) != 0 {
		t.Fatalf("GC left %v in a one-byte store", files)
	}

	got, err := ReplayMulti(a, newPolicies(t, PaperPolicies), cfg)
	if err != nil {
		t.Fatalf("replay after GC removed the stream's files: %v", err)
	}
	want := directResults(t, "db-003", PaperPolicies, cfg)
	for i, pname := range PaperPolicies {
		if got[i] != want[i] {
			t.Errorf("%s: replay after GC diverged\n direct: %+v\n replay: %+v", pname, want[i], got[i])
		}
	}

	misses0 := misses.Value()
	_, again := persistentStreamFor(t, dir, "db-003", cfg)
	if d := misses.Value() - misses0; d != 1 {
		t.Errorf("second cache: misses delta = %d, want 1 (a clean recapture)", d)
	}
	if again.Events() != a.Events() || again.MemBytes() != a.MemBytes() {
		t.Errorf("recapture diverged: %d events / %d B, first capture %d / %d",
			again.Events(), again.MemBytes(), a.Events(), a.MemBytes())
	}
	if d := diskErrors.Value() - errors0; d != 0 {
		t.Errorf("disk errors delta = %d, want 0", d)
	}
}

// storeFiles lists the capture-store files (.l2s and .l2d) in dir.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	l2s, err := filepath.Glob(filepath.Join(dir, "*.l2s"))
	if err != nil {
		t.Fatal(err)
	}
	return append(l2s, sidecarFiles(t, dir)...)
}

func sidecarFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.l2d"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}
