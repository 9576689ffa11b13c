package sim

import (
	"encoding/binary"
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
// path: a first fused replay persists the capture with its derived
// views as one store file; a second process (modelled by a fresh cache
// over the same directory) loads the stream and its views from disk,
// builds nothing, and must still match every policy's direct run bit
// for bit.
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
			if files := storeFiles(t, dir); len(files) != 1 || len(sectionPayloads(t, files[0])) == 0 {
				t.Fatalf("%s pd=%d: cold fused replay left %v, want one store file with view sections", wname, pd, files)
			}

			_, warm := persistentStreamFor(t, dir, wname, cfg)
			builds0 := derivedBuilds.Value()
			fused, err := ReplayMulti(warm, newPolicies(t, PolicyNames()), cfg)
			if err != nil {
				t.Fatalf("%s pd=%d warm fused: %v", wname, pd, err)
			}
			if d := derivedBuilds.Value() - builds0; d != 0 {
				t.Errorf("%s pd=%d: warm replay built %d views, want 0", wname, pd, d)
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

// TestReplayMultiDerivedCorruptionRecovers: damaged view sections, or
// a truncated store file, must be treated as absent — the views rebuild
// from the stream (recaptured, for the truncated file) and the results
// do not change.
func TestReplayMultiDerivedCorruptionRecovers(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(150000)
	cfg.PrefetchDistance = 4
	damage := map[string]func(data []byte, payloads [][2]int) []byte{
		"bit-damage": func(data []byte, payloads [][2]int) []byte {
			for _, p := range payloads {
				data[(p[0]+p[1])/2] ^= 0x40
			}
			return data
		},
		"truncation": func(data []byte, _ [][2]int) []byte { return data[:len(data)/3] },
	}
	for name, mut := range damage {
		dir := t.TempDir()
		_, cold := persistentStreamFor(t, dir, "sci-002", cfg)
		want, err := ReplayMulti(cold, newPolicies(t, PolicyNames()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		files := storeFiles(t, dir)
		if len(files) != 1 {
			t.Fatalf("fused replay left %v, want one store file", files)
		}
		payloads := sectionPayloads(t, files[0])
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[0], mut(data, payloads), 0o644); err != nil {
			t.Fatal(err)
		}

		builds0 := derivedBuilds.Value()
		_, warm := persistentStreamFor(t, dir, "sci-002", cfg)
		fused, err := ReplayMulti(warm, newPolicies(t, PolicyNames()), cfg)
		if err != nil {
			t.Fatalf("%s: fused replay over a damaged store file: %v", name, err)
		}
		if d := derivedBuilds.Value() - builds0; d != uint64(len(payloads)) {
			t.Errorf("%s: rebuilt %d views, want %d", name, d, len(payloads))
		}
		for i, pname := range PolicyNames() {
			if fused[i] != want[i] {
				t.Errorf("%s/%s: replay after store damage diverged\n before: %+v\n after:  %+v", name, pname, want[i], fused[i])
			}
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

// storeFiles lists the capture-store files (.l2s and legacy .l2d) in
// dir.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	for _, pat := range []string{"*.l2s", "*.l2d"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	return files
}

// sectionPayloads returns the byte ranges of a store file's view
// section payloads, read from its table per the layout documented in
// internal/l2stream/store.go: a 144-byte header whose uint64s at offset
// 48 end with body length, table length and section count; then table
// entries of key length (uint16), key, payload length (uint64) and
// CRC (uint32); then the payloads in table order.
func sectionPayloads(t *testing.T, path string) [][2]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 48 + 8*12
	u := func(i int) int { return int(binary.LittleEndian.Uint64(data[48+8*i:])) }
	table := data[hdr : hdr+u(10)]
	off := hdr + u(10)
	var out [][2]int
	for i := 0; i < u(11); i++ {
		k := 2 + int(binary.LittleEndian.Uint16(table))
		n := int(binary.LittleEndian.Uint64(table[k:]))
		out = append(out, [2]int{off, off + n})
		table, off = table[k+12:], off+n
	}
	return out
}

var (
	derivedBuilds   = obs.Default.Counter("chirp_l2stream_derived_builds_total", "")
	derivedDiskHits = obs.Default.Counter("chirp_l2stream_derived_disk_hits_total", "")
	diskWrites      = obs.Default.Counter("chirp_l2stream_cache_disk_writes_total", "")
)
