package l2stream

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chirplab/chirp/internal/trace"
)

// eventCountSpec is a minimal derived-view family for exercising the
// memo/persistence machinery: the view is the stream's event count as
// a uint64, persisted as 8 little-endian bytes.
func eventCountSpec(key string, builds *atomic.Int64) *DerivedSpec {
	return &DerivedSpec{
		Key: key,
		Build: func(*Stream) DerivedBuilder {
			if builds != nil {
				builds.Add(1)
			}
			return &countBuilder{}
		},
		Bytes:  func(any) int64 { return 8 },
		Encode: func(v any) []byte { return binary.LittleEndian.AppendUint64(nil, v.(uint64)) },
		Decode: func(_ *Stream, data []byte) (any, bool) {
			if len(data) != 8 {
				return nil, false
			}
			return binary.LittleEndian.Uint64(data), true
		},
	}
}

type countBuilder struct{ n uint64 }

func (b *countBuilder) Feed(evs []Event) { b.n += uint64(len(evs)) }
func (b *countBuilder) Finish() any      { return b.n }

// bytesSpec is a derived-view family whose view is a byte string
// folded over the events, persisted verbatim.
func bytesSpec(key string, fold func(out []byte, ev *Event) []byte) *DerivedSpec {
	return &DerivedSpec{
		Key:    key,
		Build:  func(*Stream) DerivedBuilder { return &foldBuilder{fold: fold} },
		Bytes:  func(v any) int64 { return int64(len(v.([]byte))) },
		Encode: func(v any) []byte { return v.([]byte) },
		Decode: func(_ *Stream, data []byte) (any, bool) { return bytes.Clone(data), true },
	}
}

type foldBuilder struct {
	fold func([]byte, *Event) []byte
	out  []byte
}

func (b *foldBuilder) Feed(evs []Event) {
	for i := range evs {
		b.out = b.fold(b.out, &evs[i])
	}
}
func (b *foldBuilder) Finish() any { return b.out }

// persist writes a store-backed stream's file the way a replay does:
// through a Derive (here of one small view).
func persist(t *testing.T, s *Stream) {
	t.Helper()
	if _, err := s.Derived(eventCountSpec("test:persist", nil)); err != nil {
		t.Fatal(err)
	}
}

func persistentStreamFor(t *testing.T, dir, workload string, instr uint64) *Stream {
	t.Helper()
	cache, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	cfg := testConfig(instr)
	s, err := cache.GetOrCapture(Key{Workload: workload, Config: cfg}, func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(testRecords(int(instr))), cfg, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDerivedSingleFlight: concurrent Derived calls for one key build
// once and share the view; a different key builds separately.
func TestDerivedSingleFlight(t *testing.T) {
	s, err := Capture(trace.NewSliceSource(testRecords(3000)), testConfig(5000), CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	spec := eventCountSpec("test:count", &builds)
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Derived(spec)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("concurrent Derived ran %d builds, want 1", n)
	}
	for i, v := range got {
		if v != uint64(s.Events()) {
			t.Errorf("caller %d saw %v, want %d", i, v, s.Events())
		}
	}
	if _, err := s.Derived(eventCountSpec("test:count2", &builds)); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("distinct key reused the memo (%d builds, want 2)", n)
	}
	if len(s.derived) != 2 {
		t.Errorf("stream holds %d views, want 2", len(s.derived))
	}
}

// TestDerivedSidecarRoundTrip: a derived view built on a persistent
// stream is written as a section of the stream's file; a second cache
// on the same directory serves the view from disk without rebuilding.
func TestDerivedSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := persistentStreamFor(t, dir, "w", 4000)
	var builds atomic.Int64
	writes0 := obsDerivedDiskWrites.Value()
	v1, err := s.Derived(eventCountSpec("test:rt", &builds))
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 {
		t.Fatalf("first use built %d times, want 1", builds.Load())
	}
	if d := obsDerivedDiskWrites.Value() - writes0; d != 1 {
		t.Errorf("sidecar writes delta = %d, want 1", d)
	}

	s2 := persistentStreamFor(t, dir, "w", 4000)
	hits0 := obsDerivedDiskHits.Value()
	v2, err := s2.Derived(eventCountSpec("test:rt", &builds))
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 {
		t.Errorf("warm load rebuilt the view (%d builds)", builds.Load())
	}
	if d := obsDerivedDiskHits.Value() - hits0; d != 1 {
		t.Errorf("sidecar hits delta = %d, want 1", d)
	}
	if v1 != v2 {
		t.Errorf("disk round-trip changed the view: %v != %v", v1, v2)
	}
}

// storeFileOf returns the path of the one store file in dir.
func storeFileOf(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || !strings.HasSuffix(files[0], ".l2s") {
		t.Fatalf("store holds %v, want one .l2s file", files)
	}
	return files[0]
}

// TestDerivedSidecarCorruptionRebuilds: damage to a view's section
// payload drops only that view — the stream still loads, the view
// rebuilds and the file is rewritten — while damage to the header,
// table or length (a flipped key byte, truncation, an empty file, bad
// magic or version) rejects the whole file, so the stream recaptures
// and its views rebuild. Either way the next cache loads cleanly.
func TestDerivedSidecarCorruptionRebuilds(t *testing.T) {
	corruptions := []struct {
		name  string
		whole bool // the damage rejects the file, not one section
		mut   func(b []byte, payload [2]int) []byte
	}{
		{"flip-payload-byte", false, func(b []byte, p [2]int) []byte { b[p[1]-1] ^= 0xff; return b }},
		{"flip-key-byte", true, func(b []byte, _ [2]int) []byte { b[storeHeaderSize+3] ^= 0xff; return b }},
		{"truncate", true, func(b []byte, p [2]int) []byte { return b[:p[0]+4] }},
		{"empty", true, func([]byte, [2]int) []byte { return nil }},
		{"bad-magic", true, func(b []byte, _ [2]int) []byte { b[0] = 'X'; return b }},
		{"bad-version", true, func(b []byte, _ [2]int) []byte { b[4]++; return b }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := persistentStreamFor(t, dir, "w", 4000)
			var builds atomic.Int64
			want, err := s.Derived(eventCountSpec("test:c", &builds))
			if err != nil {
				t.Fatal(err)
			}
			path := storeFileOf(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(data, sectionSpans(data)["test:c"]), 0o644); err != nil {
				t.Fatal(err)
			}

			misses0, corrupt0 := obsCacheMisses.Value(), obsDerivedCorrupt.Value()
			s2 := persistentStreamFor(t, dir, "w", 4000)
			got, err := s2.Derived(eventCountSpec("test:c", &builds))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("rebuilt view %v, want %v", got, want)
			}
			if builds.Load() != 2 {
				t.Errorf("corrupt section served without rebuild (%d builds, want 2)", builds.Load())
			}
			wantMisses, wantCorrupt := uint64(0), uint64(1)
			if tc.whole {
				wantMisses, wantCorrupt = 1, 0
			}
			if d := obsCacheMisses.Value() - misses0; d != wantMisses {
				t.Errorf("captures delta = %d, want %d", d, wantMisses)
			}
			if d := obsDerivedCorrupt.Value() - corrupt0; d != wantCorrupt {
				t.Errorf("corruption counter delta = %d, want %d", d, wantCorrupt)
			}
			// The rebuild rewrote the file; a third stream loads clean.
			misses0 = obsCacheMisses.Value()
			s3 := persistentStreamFor(t, dir, "w", 4000)
			if got, err := s3.Derived(eventCountSpec("test:c", &builds)); err != nil || got != want {
				t.Fatalf("rewritten section load = %v, %v", got, err)
			}
			if builds.Load() != 2 || obsCacheMisses.Value() != misses0 {
				t.Errorf("rewritten file was not served from disk (%d builds, %d captures)", builds.Load(), obsCacheMisses.Value()-misses0)
			}
		})
	}
}

// TestDerivedSidecarKeyed: views are keyed by derived key inside the
// stream's one file — a second key adds a section with one rewrite and
// keeps the first, and a key the file does not hold is built, never
// served from another key's section.
func TestDerivedSidecarKeyed(t *testing.T) {
	dir := t.TempDir()
	s := persistentStreamFor(t, dir, "w", 4000)
	writes0 := obsCacheDiskWrites.Value()
	if _, err := s.Derived(eventCountSpec("test:k1", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Derived(eventCountSpec("test:k2", nil)); err != nil {
		t.Fatal(err)
	}
	if d := obsCacheDiskWrites.Value() - writes0; d != 2 {
		t.Errorf("disk writes delta = %d, want 2 (the first write, one rewrite)", d)
	}
	data, err := os.ReadFile(storeFileOf(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	_, secs, ok := decodeStoreFile(data, Key{Workload: "w", Config: testConfig(4000)})
	if !ok || len(secs) != 2 {
		t.Fatalf("store file: ok=%v with %d sections, want 2", ok, len(secs))
	}

	var builds atomic.Int64
	s2 := persistentStreamFor(t, dir, "w", 4000)
	hits0 := obsDerivedDiskHits.Value()
	if _, err := s2.Derive(eventCountSpec("test:k1", &builds), eventCountSpec("test:k2", &builds), eventCountSpec("test:other", &builds)); err != nil {
		t.Fatal(err)
	}
	if d := obsDerivedDiskHits.Value() - hits0; d != 2 || builds.Load() != 1 {
		t.Errorf("disk hits delta = %d with %d builds, want 2 hits and 1 build (test:other)", d, builds.Load())
	}
}

// TestDerivedGrowthAccounting: a derived view materializing on a
// cached stream must grow the cache's accounted bytes by the view's
// footprint and trigger the budget rebalance.
func TestDerivedGrowthAccounting(t *testing.T) {
	cache := NewCache(1 << 20)
	defer cache.Close()
	cfg := testConfig(5000)
	key := Key{Workload: "w", Config: cfg}
	s, err := cache.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(testRecords(3000)), cfg, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	used0 := cache.used
	bytes0 := cache.entries[key].bytes
	cache.mu.Unlock()

	const viewBytes = 4096
	spec := eventCountSpec("test:grow", nil)
	spec.Bytes = func(any) int64 { return viewBytes }
	if _, err := s.Derived(spec); err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	used1 := cache.used
	bytes1 := cache.entries[key].bytes
	cache.mu.Unlock()
	if used1-used0 != viewBytes {
		t.Errorf("cache.used grew by %d, want %d", used1-used0, viewBytes)
	}
	if bytes1-bytes0 != viewBytes {
		t.Errorf("entry bytes grew by %d, want %d", bytes1-bytes0, viewBytes)
	}
	if fp := s.FootprintBytes(); fp != int64(s.MemBytes())+viewBytes {
		t.Errorf("FootprintBytes = %d, want buffer %d + view %d", fp, s.MemBytes(), viewBytes)
	}

	// Growth hooks on an evicted stream must not corrupt accounting:
	// evict by overflowing the budget, then materialize another view.
	big := eventCountSpec("test:grow2", nil)
	big.Bytes = func(any) int64 { return 2 << 20 } // over budget: evicts
	if _, err := s.Derived(big); err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	_, stillThere := cache.entries[key]
	used2 := cache.used
	cache.mu.Unlock()
	if stillThere {
		t.Error("over-budget derived growth did not evict the stream")
	}
	if used2 != 0 {
		t.Errorf("cache.used = %d after eviction, want 0", used2)
	}
	spec3 := eventCountSpec("test:grow3", nil)
	spec3.Bytes = func(any) int64 { return 512 }
	if _, err := s.Derived(spec3); err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	used3 := cache.used
	cache.mu.Unlock()
	if used3 != used2 {
		t.Errorf("growth on an evicted stream changed cache.used by %d", used3-used2)
	}
}

// TestStoreGC: setting a byte budget on a persistent directory evicts
// whole store files — a capture with its view sections — oldest first,
// until the directory fits, and leaves newer files intact.
func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cfg := testConfig(5000)
	var paths []string
	for _, w := range []string{"a", "b", "c"} {
		s, err := cache.GetOrCapture(Key{Workload: w, Config: cfg}, func(opts CaptureOptions) (*Stream, error) {
			return Capture(trace.NewSliceSource(testRecords(3000)), cfg, opts)
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Derived(eventCountSpec("test:gc", nil)); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, cache.store.path(Key{Workload: w, Config: cfg}))
	}
	// Age the files deterministically: a oldest, c newest.
	base := time.Now().Add(-time.Hour)
	var total int64
	for i, p := range paths {
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if files, _ := os.ReadDir(dir); len(files) != 3 {
		t.Fatalf("three captures left %d files, want 3", len(files))
	}

	perFile := total / 3
	evict0 := obsStoreEvictions.Value()
	cache.SetStoreMaxBytes(total - perFile/2) // forces out exactly one file
	if d := obsStoreEvictions.Value() - evict0; d != 1 {
		t.Errorf("store evictions delta = %d, want 1", d)
	}
	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Errorf("oldest file survived GC (err=%v)", err)
	}
	for _, p := range paths[1:] {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("newer file was evicted: %v", err)
		}
	}
	// An unbounded budget never evicts.
	cache.SetStoreMaxBytes(0)
	if d := obsStoreEvictions.Value() - evict0; d != 1 {
		t.Errorf("unbounded budget evicted (delta %d, want 1)", d)
	}
}
