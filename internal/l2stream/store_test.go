package l2stream

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
			if _, err := c.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
				return Capture(trace.NewSliceSource(recs), cfg, opts)
			}); err != nil {
				t.Fatal(err)
			}
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

// FuzzDecodeStoreFile: decodeStoreFile never panics, and any .l2s file
// it accepts decodes through NextBlock to exactly the header's event
// and access counts. The seed corpus holds a real capture plus damaged
// copies of it.
func FuzzDecodeStoreFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := decodeStoreFile(data, fuzzKey)
		if !ok {
			return
		}
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
	})
}

// TestFuzzSeedIsCurrent pins the valid seed to the current codec: it
// must decode, and must equal what save writes for the same capture
// today, so a format change cannot silently leave the fuzz target
// exercising only its rejection paths.
func TestFuzzSeedIsCurrent(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeStoreFile", "capture"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Capture(trace.NewSliceSource(testRecords(400)), fuzzKey.Config, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := &store{dir: dir}
	if err := st.save(fuzzKey, s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.path(fuzzKey))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if string(seed) != want {
		t.Fatal("testdata/fuzz/FuzzDecodeStoreFile/capture is stale: it must hold what save writes for testRecords(400) under fuzzKey, in go test fuzz v1 form")
	}
	if _, ok := decodeStoreFile(data, fuzzKey); !ok {
		t.Fatal("current capture fails to decode")
	}
}
