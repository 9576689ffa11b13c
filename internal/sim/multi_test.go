package sim

import (
	"context"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// TestReplayMultiEquivalence is the replay engine's correctness gate:
// one ReplayMulti pass over every registered policy must reproduce
// each policy's direct RunTLBOnly result bit for bit — across workload
// categories, with and without prefetching, on a fresh capture and
// again after a reload (stream and derived views) through a second
// persistent cache on the same directory. The policy list interleaves
// the signature-fed observers (ghrp, chirp) with plain policies.
func TestReplayMultiEquivalence(t *testing.T) {
	const instructions = 400000
	names := PolicyNames()
	for _, pd := range []int{0, 4} {
		cfg := DefaultTLBOnlyConfig(instructions)
		cfg.PrefetchDistance = pd
		for _, wname := range equivalenceWorkloads {
			want := directResults(t, wname, names, cfg)
			dir := t.TempDir()
			for _, pass := range []string{"fresh", "reloaded"} {
				_, stream := persistentStreamFor(t, dir, wname, cfg)
				fused, err := ReplayMulti(stream, newPolicies(t, names), cfg)
				if err != nil {
					t.Fatalf("%s pd=%d %s: %v", wname, pd, pass, err)
				}
				for i, pname := range names {
					// TLBOnlyResult is all scalars, so == is field-by-field.
					if fused[i] != want[i] {
						t.Errorf("%s/%s pd=%d %s: replay diverged\n direct: %+v\n replay: %+v",
							wname, pname, pd, pass, want[i], fused[i])
					}
				}
			}
		}
	}
}

// directResults runs each named policy over the workload with the
// reference driver.
func directResults(t *testing.T, wname string, names []string, cfg TLBOnlyConfig) []TLBOnlyResult {
	t.Helper()
	w := workloads.ByName(wname)
	out := make([]TLBOnlyResult, len(names))
	for i, p := range newPolicies(t, names) {
		var err error
		out[i], err = RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), p, cfg)
		if err != nil {
			t.Fatalf("%s/%s direct: %v", wname, names[i], err)
		}
	}
	return out
}

// TestRunMultiMatchesRun: the fused entry point must agree with N
// independent Run calls on both paths — capture/replay (shared cache)
// and direct (no cache).
func TestRunMultiMatchesRun(t *testing.T) {
	w := workloads.ByName("web-001")
	cfg := DefaultTLBOnlyConfig(150000)
	names := []string{"lru", "ghrp", "srrip", "chirp"}
	factories := make([]PolicyFactory, len(names))
	for i, n := range names {
		nf, err := Factories([]string{n})
		if err != nil {
			t.Fatal(err)
		}
		factories[i] = nf[0].New
	}
	ctx := context.Background()

	for _, withCache := range []bool{true, false} {
		var cache *l2stream.Cache
		if withCache {
			cache = l2stream.NewCache(0)
			defer cache.Close()
		}
		fused, err := RunMulti(ctx, RunSpec{Workload: w, Config: cfg, Cache: cache}, factories)
		if err != nil {
			t.Fatalf("RunMulti(cache=%v): %v", withCache, err)
		}
		for i, f := range factories {
			// A fresh per-policy cache keeps solo captures independent of
			// the fused run while staying on the same path.
			var soloCache *l2stream.Cache
			if withCache {
				soloCache = l2stream.NewCache(0)
				defer soloCache.Close()
			}
			want, err := Run(ctx, RunSpec{Workload: w, Policy: f, Config: cfg, Cache: soloCache})
			if err != nil {
				t.Fatal(err)
			}
			if fused[i] != want {
				t.Errorf("cache=%v %s: RunMulti diverged from Run\n solo:  %+v\n fused: %+v",
					withCache, names[i], want, fused[i])
			}
		}
	}
}

// TestRunMultiValidates: argument errors surface before any work.
func TestRunMultiValidates(t *testing.T) {
	ctx := context.Background()
	if _, err := RunMulti(ctx, RunSpec{Workload: workloads.ByName("spec-000"), Config: DefaultTLBOnlyConfig(1000)}, nil); err == nil {
		t.Error("RunMulti accepted an empty policy list")
	}
	lru, err := Factories([]string{"lru"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMulti(ctx, RunSpec{Config: DefaultTLBOnlyConfig(1000)}, []PolicyFactory{lru[0].New}); err == nil {
		t.Error("RunMulti accepted a spec with no trace source")
	}
}
