package sim

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/workloads"
)

// feedLog records, in order, every block a set of wrapped builders is
// fed: the test-side hook that counts how often Derive decodes.
type feedLog struct {
	mu    sync.Mutex
	feeds []feed
}

type feed struct {
	builder int
	block   *l2stream.Event
	n       int
}

// loggedBuilder forwards to a real builder, logging each block.
type loggedBuilder struct {
	l2stream.DerivedBuilder
	id  int
	log *feedLog
}

func (b *loggedBuilder) Feed(evs []l2stream.Event) {
	b.log.mu.Lock()
	b.log.feeds = append(b.log.feeds, feed{b.id, &evs[0], len(evs)})
	b.log.mu.Unlock()
	b.DerivedBuilder.Feed(evs)
}

// logged wraps every spec's builder into log.
func logged(specs []*l2stream.DerivedSpec, log *feedLog) []*l2stream.DerivedSpec {
	out := make([]*l2stream.DerivedSpec, len(specs))
	for i, spec := range specs {
		w, id := *spec, i
		w.Build = func(s *l2stream.Stream) l2stream.DerivedBuilder {
			return &loggedBuilder{DerivedBuilder: spec.Build(s), id: id, log: log}
		}
		out[i] = &w
	}
	return out
}

// decodes counts the decode passes behind a feed log: one per run of
// blocks, where a new pass starts whenever a builder is fed its first
// block after some builder has moved past its own. It also checks that
// the builders of one pass are fed the very same block buffers.
func (l *feedLog) decodes(t *testing.T) int {
	t.Helper()
	passes := 0
	pos := map[int]int{}
	advanced := false
	var first []feed // per block ordinal, the first feed seen in this pass
	for _, f := range l.feeds {
		if pos[f.builder] == 0 && (passes == 0 || advanced) {
			passes++
			advanced = false
			first = first[:0]
			pos = map[int]int{}
		}
		i := pos[f.builder]
		if i == len(first) {
			first = append(first, f)
		} else if first[i].block != f.block || first[i].n != f.n {
			t.Fatalf("builder %d got a different block %d than builder %d in the same pass", f.builder, i, first[i].builder)
		}
		pos[f.builder] = i + 1
		advanced = advanced || i > 0
	}
	return passes
}

// TestDeriveFusedIdentity: Stream.Derive over the view families of all
// eleven policies plus a second CHiRP signature configuration builds
// every view in one decode pass, and each view is byte-identical
// (through its Encode) to building that spec alone.
func TestDeriveFusedIdentity(t *testing.T) {
	alt := core.DefaultConfig()
	alt.UseCondHistory = false
	for _, pd := range []int{0, 4} {
		cfg := DefaultTLBOnlyConfig(200000)
		cfg.PrefetchDistance = pd
		policies := append(newPolicies(t, PolicyNames()), core.MustNew(alt))
		specs, _ := viewSpecs(cfg, policies)
		keys := map[string]bool{}
		for _, spec := range specs {
			keys[spec.Key] = true
		}
		if len(keys) != 4 {
			t.Fatalf("view specs cover %d distinct views, want 4 (replay view, two CHiRP configurations, GHRP): %v", len(keys), keys)
		}
		for _, wname := range equivalenceWorkloads {
			var log feedLog
			fused := captureFor(t, wname, cfg)
			if _, err := fused.Derive(logged(specs, &log)...); err != nil {
				t.Fatalf("%s pd=%d: Derive: %v", wname, pd, err)
			}
			if n := log.decodes(t); n != 1 {
				t.Errorf("%s pd=%d: one Derive decoded the stream %d times, want 1", wname, pd, n)
			}
			// Views already there cost no further decode.
			log.feeds = nil
			if _, err := fused.Derive(logged(specs, &log)...); err != nil || len(log.feeds) != 0 {
				t.Errorf("%s pd=%d: repeated Derive fed %d blocks (err %v), want 0", wname, pd, len(log.feeds), err)
			}

			solo := captureFor(t, wname, cfg)
			for _, spec := range specs {
				want, err := solo.Derived(spec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fused.Derived(spec)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(spec.Encode(got), spec.Encode(want)) {
					t.Errorf("%s pd=%d %s: fused view differs from the view built alone", wname, pd, spec.Key)
				}
			}
		}
	}
}

// TestStoreLayoutContract pins the persistent store's file contract
// through the public entry points: a cold RunMulti over N workloads
// writes exactly N files, one per capture with its views; a second
// cache serves all 3N views from those files without building or
// writing; a replay at a new L2 geometry adds one section per file with
// one rewrite each; and a further cache then builds nothing for either
// geometry.
func TestStoreLayoutContract(t *testing.T) {
	names := []string{"db-003", "web-001", "spec-000"}
	n := uint64(len(names))
	cfg := DefaultTLBOnlyConfig(100000)
	cfg.PrefetchDistance = 2
	geom := cfg
	geom.Hierarchy.L2.Entries /= 2
	factories, err := Factories(PaperPolicies)
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]PolicyFactory, len(factories))
	for i, f := range factories {
		fs[i] = f.New
	}
	dir := t.TempDir()
	misses := obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	sweep := func(cfgs ...TLBOnlyConfig) (builds, hits, writes, captures uint64) {
		t.Helper()
		b0, h0, w0, m0 := derivedBuilds.Value(), derivedDiskHits.Value(), diskWrites.Value(), misses.Value()
		cache, err := l2stream.NewPersistent(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		for _, c := range cfgs {
			for _, name := range names {
				spec := RunSpec{Workload: workloads.ByName(name), Config: c, Cache: cache}
				if _, err := RunMulti(context.Background(), spec, fs); err != nil {
					t.Fatal(err)
				}
			}
		}
		return derivedBuilds.Value() - b0, derivedDiskHits.Value() - h0, diskWrites.Value() - w0, misses.Value() - m0
	}
	sections := func() []int {
		t.Helper()
		files := storeFiles(t, dir)
		if entries, _ := os.ReadDir(dir); uint64(len(files)) != n || len(entries) != len(files) {
			t.Fatalf("store holds %d entries (%d store files), want exactly %d .l2s files", len(entries), len(files), n)
		}
		var out []int
		for _, f := range files {
			out = append(out, len(sectionPayloads(t, f)))
		}
		return out
	}

	if builds, hits, writes, captures := sweep(cfg); builds != 3*n || hits != 0 || writes != n || captures != n {
		t.Errorf("cold sweep: %d builds, %d disk hits, %d writes, %d captures; want %d, 0, %d, %d", builds, hits, writes, captures, 3*n, n, n)
	}
	for _, k := range sections() {
		if k != 3 {
			t.Errorf("cold file holds %d sections, want 3", k)
		}
	}
	if builds, hits, writes, captures := sweep(cfg); builds != 0 || hits != 3*n || writes != 0 || captures != 0 {
		t.Errorf("warm sweep: %d builds, %d disk hits, %d writes, %d captures; want 0, %d, 0, 0", builds, hits, writes, captures, 3*n)
	}
	if builds, hits, writes, captures := sweep(geom); builds != n || hits != 2*n || writes != n || captures != 0 {
		t.Errorf("new-geometry sweep: %d builds, %d disk hits, %d writes, %d captures; want %d, %d, %d, 0", builds, hits, writes, captures, n, 2*n, n)
	}
	for _, k := range sections() {
		if k != 4 {
			t.Errorf("rewritten file holds %d sections, want 4", k)
		}
	}
	if builds, hits, writes, captures := sweep(cfg, geom); builds != 0 || hits != 4*n || writes != 0 || captures != 0 {
		t.Errorf("both geometries warm: %d builds, %d disk hits, %d writes, %d captures; want 0, %d, 0, 0", builds, hits, writes, captures, 4*n)
	}
}
