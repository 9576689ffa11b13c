package sim

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// equivalenceWorkloads spans 3+ categories with distinct behaviours:
// database (batch/zipf mixes), web (pointer chases), and scientific
// (streams/loops) pressure the L1 filters and branch stream
// differently.
var equivalenceWorkloads = []string{"db-003", "web-001", "sci-002", "spec-000"}

func captureFor(t *testing.T, name string, cfg TLBOnlyConfig) *l2stream.Stream {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("workload %s missing", name)
	}
	src := trace.NewLimit(w.Source(), cfg.Instructions)
	stream, err := l2stream.Capture(src, CaptureConfig(cfg), l2stream.CaptureOptions{})
	if err != nil {
		t.Fatalf("capture %s: %v", name, err)
	}
	return stream
}

// TestReplayEquivalence: each policy replayed alone (the shape Run's
// cache path takes) must equal its row of one fused ReplayMulti pass
// over the same stream, on workloads from several categories, with
// and without prefetching — policies share only read-only views.
func TestReplayEquivalence(t *testing.T) {
	const instructions = 400000
	names := PolicyNames()
	for _, pd := range []int{0, 4} {
		cfg := DefaultTLBOnlyConfig(instructions)
		cfg.PrefetchDistance = pd
		for _, wname := range equivalenceWorkloads {
			stream := captureFor(t, wname, cfg)
			fused, err := ReplayMulti(stream, newPolicies(t, names), cfg)
			if err != nil {
				t.Fatalf("%s pd=%d fused: %v", wname, pd, err)
			}
			for i, pname := range names {
				solo, err := ReplayMulti(stream, newPolicies(t, []string{pname}), cfg)
				if err != nil {
					t.Fatalf("%s/%s solo replay: %v", wname, pname, err)
				}
				// TLBOnlyResult is all scalars, so == is field-by-field.
				if solo[0] != fused[i] {
					t.Errorf("%s/%s pd=%d: solo replay diverged from fused\n fused: %+v\n solo:  %+v",
						wname, pname, pd, fused[i], solo[0])
				}
			}
		}
	}
}

// newPolicies builds a fresh instance of each named policy.
func newPolicies(t *testing.T, names []string) []tlb.Policy {
	t.Helper()
	pols := make([]tlb.Policy, len(names))
	for i, n := range names {
		pol, err := NewPolicy(n)
		if err != nil {
			t.Fatal(err)
		}
		pols[i] = pol
	}
	return pols
}

// TestPolicyParallelReplay replays one shared stream under every
// registered policy from concurrent goroutines — the exact shape a
// Workers>1 engine sweep produces — and checks each result against a
// serial replay of the same pair. Under -race this also proves the
// derived views are safe to materialize concurrently from plain and
// signature-fed policies.
func TestPolicyParallelReplay(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(300000)
	stream := captureFor(t, "db-003", cfg)

	names := PolicyNames()
	const rounds = 3 // several replays per policy race against each other too
	type cell struct {
		name string
		res  TLBOnlyResult
		err  error
	}
	results := make([]cell, len(names)*rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, name := range names {
			idx := r*len(names) + i
			name := name
			wg.Add(1)
			go func() {
				defer wg.Done()
				pol, err := NewPolicy(name)
				if err == nil {
					var rs []TLBOnlyResult
					if rs, err = ReplayMulti(stream, []tlb.Policy{pol}, cfg); err == nil {
						results[idx].res = rs[0]
					}
				}
				results[idx].name, results[idx].err = name, err
			}()
		}
	}
	wg.Wait()
	serial, err := ReplayMulti(stream, newPolicies(t, names), cfg)
	if err != nil {
		t.Fatalf("serial replay: %v", err)
	}
	for i, c := range results {
		if c.err != nil {
			t.Errorf("%s parallel replay: %v", c.name, c.err)
			continue
		}
		if want := serial[i%len(names)]; c.res != want {
			t.Errorf("%s: parallel replay diverged from serial\n parallel: %+v\n serial:   %+v",
				c.name, c.res, want)
		}
	}
}

// TestOverBudgetRunsDirect: a workload whose capture passes the
// cache's byte budget runs on the direct path — Run and RunMulti still
// equal RunTLBOnly field for field, the cache attempts the capture
// once per key however often it is asked, and nothing reaches the
// persistent store.
func TestOverBudgetRunsDirect(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(200000)
	cfg.PrefetchDistance = 2
	w := workloads.ByName("db-003")
	dir := t.TempDir()
	cache, err := l2stream.NewPersistent(1024, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	misses := obs.Default.Counter("chirp_l2stream_cache_misses_total", "")
	misses0 := misses.Value()

	names := []string{"lru", "chirp", "ghrp"}
	factories, err := Factories(names)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fs := make([]PolicyFactory, len(factories))
	for i, f := range factories {
		fs[i] = f.New
	}
	fused, err := RunMulti(ctx, RunSpec{Workload: w, Config: cfg, Cache: cache}, fs)
	if err != nil {
		t.Fatalf("RunMulti over budget: %v", err)
	}
	for i, f := range factories {
		direct, err := RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), f.New(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := Run(ctx, RunSpec{Workload: w, Policy: f.New, Config: cfg, Cache: cache})
		if err != nil {
			t.Fatalf("%s Run over budget: %v", f.Name, err)
		}
		if fused[i] != direct || solo != direct {
			t.Errorf("%s: over-budget run diverged\n direct:   %+v\n RunMulti: %+v\n Run:      %+v",
				f.Name, direct, fused[i], solo)
		}
	}
	if d := misses.Value() - misses0; d != 1 {
		t.Errorf("cache misses delta = %d, want 1 (one capture attempt for the key)", d)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("over-budget workload left %d files in the store", len(files))
	}
}

// observingLRU is LRU plus a branch callback: a user-defined branch
// observer outside the signature-fed families.
type observingLRU struct {
	tlb.Policy
	branches int
}

func (p *observingLRU) OnBranch(uint64, bool, bool, bool, uint64) { p.branches++ }

// TestUnfedObserverRunsDirect: ReplayMulti rejects a branch observer
// it cannot feed signatures to, and Run/RunMulti send it down the
// direct path instead, next to replayed policies in the same call.
func TestUnfedObserverRunsDirect(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(150000)
	w := workloads.ByName("web-001")
	stream := captureFor(t, "web-001", cfg)
	lru, _ := NewPolicy("lru")
	if _, err := ReplayMulti(stream, []tlb.Policy{&observingLRU{Policy: lru}}, cfg); err == nil {
		t.Fatal("ReplayMulti accepted a branch observer it cannot feed")
	}

	cache := l2stream.NewCache(0)
	defer cache.Close()
	var observers []*observingLRU
	observer := func() tlb.Policy {
		p, _ := NewPolicy("lru")
		o := &observingLRU{Policy: p}
		observers = append(observers, o)
		return o
	}
	chirp := func() tlb.Policy { p, _ := NewPolicy("chirp"); return p }
	ctx := context.Background()
	got, err := RunMulti(ctx, RunSpec{Workload: w, Config: cfg, Cache: cache}, []PolicyFactory{chirp, observer})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Run(ctx, RunSpec{Workload: w, Policy: observer, Config: cfg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []PolicyFactory{chirp, observer} {
		want, err := RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), f(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("RunMulti row %d diverged\n direct: %+v\n got:    %+v", i, want, got[i])
		}
		if i == 1 && solo != want {
			t.Errorf("Run diverged\n direct: %+v\n got:    %+v", want, solo)
		}
	}
	for i, o := range observers[:2] {
		if o.branches == 0 {
			t.Errorf("observer %d saw no branches; it was not run directly", i)
		}
	}
}

func TestReplayRejectsConfigMismatch(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(50000)
	stream := captureFor(t, "spec-000", cfg)
	other := cfg
	other.Instructions = 60000
	if _, err := ReplayMulti(stream, newPolicies(t, []string{"lru"}), other); err == nil {
		t.Error("replay must reject a mismatched instruction budget")
	}
	// L2 geometry (beyond the page size) is policy-local: changing it
	// must NOT invalidate the stream.
	geom := cfg
	geom.Hierarchy.L2.Entries = 512
	if _, err := ReplayMulti(stream, newPolicies(t, []string{"lru"}), geom); err != nil {
		t.Errorf("replay must accept a different L2 geometry: %v", err)
	}
}

func TestReplayUnwarmedMatchesRunError(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(100000)
	w := workloads.ByName("spec-000")
	// A source far shorter than the warmup boundary.
	short := func() trace.Source { return trace.NewLimit(w.Source(), 1000) }
	pol, _ := NewPolicy("lru")
	_, directErr := RunTLBOnly(short(), pol, cfg)
	if directErr == nil {
		t.Fatal("direct run must fail before warmup")
	}
	stream, err := l2stream.Capture(short(), CaptureConfig(cfg), l2stream.CaptureOptions{})
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	_, replayErr := ReplayMulti(stream, newPolicies(t, []string{"lru"}), cfg)
	if replayErr == nil {
		t.Fatal("replay must fail before warmup")
	}
	if replayErr.Error() != directErr.Error() {
		t.Errorf("error text diverged:\n direct: %v\n replay: %v", directErr, replayErr)
	}
}

func TestStreamVPNsMatchesCollect(t *testing.T) {
	cfg := DefaultTLBOnlyConfig(100000)
	w := workloads.ByName("web-001")
	want, err := CollectL2Stream(trace.NewLimit(w.Source(), cfg.Instructions), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := captureFor(t, "web-001", cfg)
	got, err := StreamVPNs(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("StreamVPNs returned %d VPNs, CollectL2Stream %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VPN %d diverged: %#x vs %#x", i, got[i], want[i])
		}
	}
	if stream.Accesses() != uint64(len(want)) {
		t.Errorf("Accesses() = %d, want %d", stream.Accesses(), len(want))
	}
}

func TestSuiteUsesSharedStreamCache(t *testing.T) {
	cache := l2stream.NewCache(0)
	defer cache.Close()
	ws := []*workloads.Workload{workloads.ByName("spec-000"), workloads.ByName("db-001")}
	pols, err := Factories([]string{"lru", "srrip"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTLBOnlyConfig(100000)
	withCache, err := RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg, SuiteOptions{StreamCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != len(ws) {
		t.Errorf("cache holds %d streams, want one per workload (%d)", cache.Len(), len(ws))
	}
	// The direct reference driver must agree cell by cell.
	var direct []SuiteResult
	for _, w := range ws {
		for _, p := range pols {
			res, err := RunTLBOnly(trace.NewLimit(w.Source(), cfg.Instructions), p.New(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res.Policy = p.Name
			direct = append(direct, SuiteResult{Workload: w.Name, Category: w.Category, Profile: w.Profile(), TLBOnlyResult: res})
		}
	}
	if len(withCache) != len(direct) {
		t.Fatalf("result counts differ: %d vs %d", len(withCache), len(direct))
	}
	for i := range direct {
		if withCache[i] != direct[i] {
			t.Errorf("cell %d diverged:\n cached: %+v\n direct: %+v", i, withCache[i], direct[i])
		}
	}
	// A second suite call against the same cache reuses the captures.
	again, err := RunSuiteTLBOnlyCtx(context.Background(), ws, pols, cfg, SuiteOptions{StreamCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if again[i] != direct[i] {
			t.Errorf("rerun cell %d diverged", i)
		}
	}
	if cache.Len() != len(ws) {
		t.Errorf("rerun grew the cache to %d streams", cache.Len())
	}
}

func TestReplayErrorNamesPair(t *testing.T) {
	// A suite cell that fails during replay must still name its
	// (workload, policy) pair, like the direct path does. A warmup
	// fraction > 1 pushes the boundary past the instruction budget, so
	// every capture ends unwarmed and the replay fails.
	ws := []*workloads.Workload{workloads.ByName("spec-000")}
	cfg := DefaultTLBOnlyConfig(10000)
	cfg.WarmupFraction = 2.0
	pol, err := Factories([]string{"lru"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSuiteTLBOnlyCtx(context.Background(), ws, pol, cfg, SuiteOptions{})
	if err == nil {
		t.Fatal("expected warmup failure")
	}
	if !strings.Contains(err.Error(), "spec-000/lru") {
		t.Errorf("error does not name the failing pair: %v", err)
	}
}
