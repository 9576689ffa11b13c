package l2stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/chirplab/chirp/internal/trace"
)

// TestPersistentSecondCacheCapturesNothing is the cross-process reuse
// contract: a second cache (standing in for a second process) on the
// same capture directory must perform zero captures — every stream
// loads from disk, misses stay flat, and the loaded stream is
// event-identical to the captured one.
func TestPersistentSecondCacheCapturesNothing(t *testing.T) {
	recs := testRecords(3000)
	cfg := testConfig(5000)
	dir := t.TempDir()

	first, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	writes0 := obsCacheDiskWrites.Value()
	keys := []Key{
		{Workload: "a", Config: cfg},
		{Workload: "b", Config: cfg},
	}
	want := make(map[string]*Stream)
	for _, k := range keys {
		s, err := first.GetOrCapture(k, func(opts CaptureOptions) (*Stream, error) {
			return Capture(trace.NewSliceSource(recs), cfg, opts)
		})
		if err != nil {
			t.Fatal(err)
		}
		persist(t, s)
		want[k.Workload] = s
	}
	if d := obsCacheDiskWrites.Value() - writes0; d != 2 {
		t.Errorf("disk writes delta = %d, want 2", d)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	misses0, diskHits0 := obsCacheMisses.Value(), obsCacheDiskHits.Value()
	for _, k := range keys {
		got, err := second.GetOrCapture(k, func(CaptureOptions) (*Stream, error) {
			t.Errorf("second cache captured %s instead of loading it", k.Workload)
			return nil, os.ErrInvalid
		})
		if err != nil {
			t.Fatal(err)
		}
		w := want[k.Workload]
		if got.Records() != w.Records() || got.Instructions() != w.Instructions() ||
			got.Events() != w.Events() || got.Accesses() != w.Accesses() ||
			got.WarmupAt() != w.WarmupAt() || got.WarmupInstructions() != w.WarmupInstructions() ||
			got.L1IMisses() != w.L1IMisses() || got.L1DMisses() != w.L1DMisses() ||
			got.Warmed() != w.Warmed() {
			t.Fatalf("loaded scalars diverge for %s", k.Workload)
		}
		ge, we := decodeEvents(t, got, blockEvents), decodeEvents(t, w, blockEvents)
		if len(ge) != len(we) {
			t.Fatalf("loaded stream has %d events, captured %d", len(ge), len(we))
		}
		for i := range we {
			if ge[i] != we[i] {
				t.Fatalf("event %d diverged after disk round-trip", i)
			}
		}
	}
	if d := obsCacheMisses.Value() - misses0; d != 0 {
		t.Errorf("second cache counted %d misses, want 0", d)
	}
	if d := obsCacheDiskHits.Value() - diskHits0; d != 2 {
		t.Errorf("disk hits delta = %d, want 2", d)
	}
}

// TestPersistentCorruptionRecaptures: a truncated, garbage, damaged or
// version-mismatched store file must read as absent — the cache
// recaptures and atomically replaces it rather than erroring out.
func TestPersistentCorruptionRecaptures(t *testing.T) {
	recs := testRecords(2000)
	cfg := testConfig(3000)
	key := Key{Workload: "w", Config: cfg}

	corrupt := []struct {
		name string
		mod  func(t *testing.T, meta string)
	}{
		{"truncated", func(t *testing.T, meta string) {
			if err := os.Truncate(meta, storeHeaderSize-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad-magic", func(t *testing.T, meta string) {
			data, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			data[0] ^= 0xff
			if err := os.WriteFile(meta, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-mismatch", func(t *testing.T, meta string) {
			data, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			data[4]++ // codec version bump invalidates the file
			if err := os.WriteFile(meta, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flip-body-byte", func(t *testing.T, meta string) {
			// The header still parses; only the body checksum catches it.
			data, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			data[storeHeaderSize+len(data[storeHeaderSize:])/2] ^= 0x01
			if err := os.WriteFile(meta, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"short-payload", func(t *testing.T, meta string) {
			fi, err := os.Stat(meta)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(meta, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewPersistent(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			s0, err := c.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
				return Capture(trace.NewSliceSource(recs), cfg, opts)
			})
			if err != nil {
				t.Fatal(err)
			}
			persist(t, s0)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			tc.mod(t, (&store{dir: dir}).path(key))

			c2, err := NewPersistent(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			diskErrors0 := obsCacheDiskErrors.Value()
			captures := 0
			s, err := c2.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
				captures++
				return Capture(trace.NewSliceSource(recs), cfg, opts)
			})
			if err != nil {
				t.Fatalf("corrupted store file broke GetOrCapture: %v", err)
			}
			if captures != 1 {
				t.Errorf("capture ran %d times, want 1 (recapture past the corrupt file)", captures)
			}
			if d := obsCacheDiskErrors.Value() - diskErrors0; d != 0 {
				t.Errorf("corrupt file counted %d disk errors, want 0 (it reads as absent)", d)
			}
			if s.Events() == 0 {
				t.Error("recaptured stream is empty")
			}
			persist(t, s)
			// The recapture healed the store: a third cache loads it.
			c3, err := NewPersistent(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer c3.Close()
			if _, err := c3.GetOrCapture(key, func(CaptureOptions) (*Stream, error) {
				t.Error("store not healed; captured again")
				return nil, os.ErrInvalid
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFingerprintSensitivity: any key field change must address a
// different store file, so stale captures are never served.
func TestFingerprintSensitivity(t *testing.T) {
	base := Key{Workload: "w", Config: testConfig(3000)}
	mut := []Key{
		{Workload: "x", Config: base.Config},
		{Workload: "w", Config: func() Config { c := base.Config; c.Instructions = 4000; return c }()},
		{Workload: "w", Config: func() Config { c := base.Config; c.WarmupFraction = 0.25; return c }()},
		{Workload: "w", Config: func() Config { c := base.Config; c.PageShift = 13; return c }()},
		{Workload: "w", Config: func() Config { c := base.Config; c.L1D.Entries = 32; return c }()},
		// Two specs differing only in one client's rate fraction hash to
		// distinct spec digests, which must key distinct captures.
		{Workload: "w", Spec: "5a1f0b0c8d2e4f6a7b8c9d0e1f2a3b4c", Config: base.Config},
		{Workload: "w", Spec: "5a1f0b0c8d2e4f6a7b8c9d0e1f2a3b4d", Config: base.Config},
	}
	seen := map[[32]byte]int{fingerprint(base): -1}
	for i, k := range mut {
		h := fingerprint(k)
		if j, dup := seen[h]; dup {
			t.Errorf("key %d collides with %d", i, j)
		}
		seen[h] = i
	}
}

// fuzzKey is the key the seed corpus under testdata/fuzz was captured
// under: testRecords(400) through testConfig(600).
var fuzzKey = Key{Workload: "fuzz", Config: testConfig(600)}

// fuzzSpecs are the three views the seed file carries as sections.
func fuzzSpecs() []*DerivedSpec {
	return []*DerivedSpec{
		eventCountSpec("fuzz:count", nil),
		bytesSpec("fuzz:kinds", func(out []byte, ev *Event) []byte { return append(out, byte(ev.Kind)) }),
		bytesSpec("fuzz:pcs", func(out []byte, ev *Event) []byte {
			if ev.Kind == EventInstrAccess || ev.Kind == EventDataAccess {
				out = binary.AppendUvarint(out, ev.PC)
			}
			return out
		}),
	}
}

// fuzzFile writes the seed capture with its three sections the way a
// replay does — a store-backed stream's first Derive — and returns the
// file's bytes.
func fuzzFile(t testing.TB) []byte {
	t.Helper()
	s, err := Capture(trace.NewSliceSource(testRecords(400)), fuzzKey.Config, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := &store{dir: t.TempDir()}
	s.file = &storeFile{st: st, key: fuzzKey}
	if _, err := s.Derive(fuzzSpecs()...); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.path(fuzzKey))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sectionSpans parses a well-formed store file's table: each section's
// key and the byte range of its payload in the file.
func sectionSpans(data []byte) map[string][2]int {
	u := func(i int) int { return int(binary.LittleEndian.Uint64(data[storeU64Offset+8*i:])) }
	table := data[storeHeaderSize : storeHeaderSize+u(hdrTableLen)]
	off := storeHeaderSize + u(hdrTableLen)
	spans := map[string][2]int{}
	for len(table) > 0 {
		k := 2 + int(binary.LittleEndian.Uint16(table))
		n := int(binary.LittleEndian.Uint64(table[k:]))
		spans[string(table[2:k])] = [2]int{off, off + n}
		table, off = table[k+12:], off+n
	}
	return spans
}

// checkStoreFile is the fuzz target's contract for one input: decoding
// never panics; an accepted file decodes to its header's event and
// access counts, and every section it keeps intact is one valid wrote,
// byte for byte. An input of valid's length differing from it only
// inside section payloads is accepted with exactly those sections
// marked damaged; one differing anywhere else — header, table or body —
// is rejected.
func checkStoreFile(t *testing.T, data, valid []byte) {
	s, secs, ok := decodeStoreFile(data, fuzzKey)
	if ok {
		var events, accesses uint64
		err := s.EachBlock(func(evs []Event) {
			for i := range evs {
				events++
				if k := evs[i].Kind; k == EventInstrAccess || k == EventDataAccess {
					accesses++
				}
			}
		})
		if err != nil {
			t.Fatalf("accepted file fails to decode: %v", err)
		}
		if events != s.Events() || accesses != s.Accesses() {
			t.Fatalf("accepted file decodes to %d events / %d accesses, header says %d / %d",
				events, accesses, s.Events(), s.Accesses())
		}
	}
	spans := sectionSpans(valid)
	intact := 0
	for _, sec := range secs {
		span, known := spans[sec.key]
		if !known || sec.payload != nil && !bytes.Equal(sec.payload, valid[span[0]:span[1]]) {
			t.Fatalf("accepted section %q does not match what was written", sec.key)
		}
		if sec.payload != nil {
			intact++
		}
	}
	if len(data) != len(valid) {
		return
	}
	damaged := map[string]bool{}
	outside := false
	for i := range data {
		if data[i] == valid[i] {
			continue
		}
		in := false
		for key, span := range spans {
			if i >= span[0] && i < span[1] {
				damaged[key], in = true, true
			}
		}
		outside = outside || !in
	}
	switch {
	case outside && ok:
		t.Fatal("file damaged outside its section payloads was accepted")
	case !outside && !ok:
		t.Fatal("file damaged only inside section payloads was rejected")
	case !outside && intact != len(spans)-len(damaged):
		t.Fatalf("kept %d intact sections, want %d (%d of %d damaged)", intact, len(spans)-len(damaged), len(damaged), len(spans))
	}
	for _, sec := range secs {
		if damaged[sec.key] && sec.payload != nil {
			t.Fatalf("damaged section %q was kept", sec.key)
		}
	}
}

// FuzzDecodeStoreFile runs checkStoreFile over arbitrary inputs. The
// seed corpus holds the current seed file (a capture with three
// sections) plus copies of it truncated inside the section table, with
// a flipped section byte, with a flipped body byte, and cut to the
// header.
func FuzzDecodeStoreFile(f *testing.F) {
	valid := fuzzFile(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkStoreFile(t, data, valid) })
}

// TestStoreFileByteFlips applies the fuzz contract to every single-byte
// flip of the seed file: a flip inside a section payload drops only
// that section, a flip anywhere else rejects the file.
func TestStoreFileByteFlips(t *testing.T) {
	valid := fuzzFile(t)
	if _, secs, ok := decodeStoreFile(valid, fuzzKey); !ok || len(secs) != 3 {
		t.Fatalf("seed file: ok=%v with %d sections, want 3", ok, len(secs))
	}
	for i := range valid {
		data := bytes.Clone(valid)
		data[i] ^= 0x10
		checkStoreFile(t, data, valid)
	}
}

// TestFuzzSeedIsCurrent pins the valid seed to the current codec: it
// must decode with its three sections, and must equal what a Derive
// writes for the same capture today, so a format change cannot
// silently leave the fuzz target exercising only its rejection paths.
func TestFuzzSeedIsCurrent(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeStoreFile", "capture"))
	if err != nil {
		t.Fatal(err)
	}
	data := fuzzFile(t)
	want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if string(seed) != want {
		t.Fatal("testdata/fuzz/FuzzDecodeStoreFile/capture is stale: it must hold what Derive writes for testRecords(400) under fuzzKey with fuzzSpecs, in go test fuzz v1 form")
	}
	if _, secs, ok := decodeStoreFile(data, fuzzKey); !ok || len(secs) != 3 {
		t.Fatalf("current capture: ok=%v with %d sections, want 3", ok, len(secs))
	}
}

// TestStoreGCEvictsLegacyFiles: files an older codec version left in a
// capture directory — captures and separate .l2d views alike — count
// against the byte budget and are evicted like any store file, oldest
// first, while temp files and foreign files are neither counted nor
// touched.
func TestStoreGCEvictsLegacyFiles(t *testing.T) {
	dir := t.TempDir()
	legacy := map[string]int{
		"chirp-0123456789abcdef01234567.l2s":                   3000,
		"chirp-0123456789abcdef01234567-d0011223344556677.l2d": 700,
		"chirp-89abcdef0123456789abcdef-d8899aabbccddeeff.l2d": 500,
	}
	old := time.Now().Add(-2 * time.Hour)
	legacyBytes := 0
	for name, size := range legacy {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, bytes.Repeat([]byte{3}, size), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
		legacyBytes += size
	}
	kept := []string{"notes.txt", "chirp-0123.l2s.tmp"}
	for _, name := range kept {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, 9000), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cache, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cfg := testConfig(5000)
	key := Key{Workload: "w", Config: cfg}
	s, err := cache.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(testRecords(3000)), cfg, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	persist(t, s)
	fi, err := os.Stat(cache.store.path(key))
	if err != nil {
		t.Fatal(err)
	}
	current := fi.Size()

	evict0 := obsStoreEvictions.Value()
	cache.SetStoreMaxBytes(current + int64(legacyBytes))
	if d := obsStoreEvictions.Value() - evict0; d != 0 || obsStoreBytes.Value() != current+int64(legacyBytes) {
		t.Errorf("at an exact fit: %d evictions, %d bytes counted; want 0 and %d", d, obsStoreBytes.Value(), current+int64(legacyBytes))
	}
	cache.SetStoreMaxBytes(current)
	if d := obsStoreEvictions.Value() - evict0; d != uint64(len(legacy)) {
		t.Errorf("evictions delta = %d, want %d (every legacy file)", d, len(legacy))
	}
	for name := range legacy {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("legacy file %s survived GC (err=%v)", name, err)
		}
	}
	for _, p := range append([]string{cache.store.path(key)}, filepath.Join(dir, kept[0]), filepath.Join(dir, kept[1])) {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s was evicted: %v", p, err)
		}
	}
	if obsStoreBytes.Value() != current {
		t.Errorf("store bytes gauge = %d, want %d", obsStoreBytes.Value(), current)
	}
}

// TestStoreGCRacesRewrite: a stream adding view sections one Derive at
// a time — each a rewrite of its file — races a GC that keeps evicting
// that file and a reader that keeps loading it. The reader must only
// ever see a complete file whose every section checks out, the views
// must stay correct, no temp file may be left behind, and none of it
// counts as a disk error.
func TestStoreGCRacesRewrite(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewPersistent(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cfg := testConfig(5000)
	key := Key{Workload: "w", Config: cfg}
	s, err := cache.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(testRecords(3000)), cfg, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	persist(t, s)
	path := cache.store.path(key)
	errors0 := obsCacheDiskErrors.Value()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // GC: alternately evict everything and merely rescan.
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			cache.SetStoreMaxBytes(int64(1 + (i%2)*(1<<30)))
		}
	}()
	reads := 0
	go func() { // Reader: every file it finds must be whole.
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			data, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			reads++
			_, secs, ok := decodeStoreFile(data, key)
			if !ok {
				t.Error("reader saw a partial or corrupt store file")
				return
			}
			for _, sec := range secs {
				if sec.payload == nil {
					t.Errorf("reader saw damaged section %q", sec.key)
					return
				}
			}
		}
	}()
	for i := 0; i < 60; i++ {
		v, err := s.Derived(eventCountSpec(fmt.Sprintf("race:%d", i), nil))
		if err != nil || v.(uint64) != s.Events() {
			t.Fatalf("Derive %d under GC: %v, %v", i, v, err)
		}
	}
	close(done)
	wg.Wait()
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	if d := obsCacheDiskErrors.Value() - errors0; d != 0 {
		t.Errorf("disk errors delta = %d, want 0", d)
	}
	t.Logf("reader loaded %d complete files", reads)
}
