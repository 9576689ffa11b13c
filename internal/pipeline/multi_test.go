package pipeline_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/paging"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

func newLRU() tlb.Policy { return policy.NewLRU() }

// identityFactories is the policy set the fused-vs-solo identity runs
// over: the extended comparison set (a superset of the paper's) plus
// Figure 2's path-only and combined CHiRP configurations.
func identityFactories(t *testing.T) []sim.NamedFactory {
	t.Helper()
	fs, err := sim.Factories(sim.ExtendedPolicies)
	if err != nil {
		t.Fatal(err)
	}
	pathOnly := core.DefaultConfig()
	pathOnly.History.PathLength = 24
	pathOnly.UseCondHistory = false
	pathOnly.UseIndirectHistory = false
	combined := core.DefaultConfig()
	combined.History.PathLength = 40
	return append(fs,
		sim.NamedFactory{Name: "path-only", New: sim.CHiRPFactory(pathOnly)},
		sim.NamedFactory{Name: "combined", New: sim.CHiRPFactory(combined)})
}

// runFused runs one machine carrying every factory's policy.
func runFused(cfg pipeline.Config, fs []sim.NamedFactory, src trace.Source) ([]pipeline.Result, error) {
	pols := make([]tlb.Policy, len(fs))
	for i, f := range fs {
		pols[i] = f.New()
	}
	m, err := pipeline.NewMulti(cfg, pols, newLRU)
	if err != nil {
		return nil, err
	}
	return m.RunMulti(src)
}

// runSolo runs one one-policy machine.
func runSolo(cfg pipeline.Config, f sim.NamedFactory, src trace.Source) (pipeline.Result, error) {
	m, err := pipeline.New(cfg, f.New(), newLRU)
	if err != nil {
		return pipeline.Result{}, err
	}
	return m.Run(src)
}

// TestMultiMatchesSolo: one N-policy pass equals N one-policy machines
// field by field (unexported TLB accounting included), at walk
// penalties 20, 150 and 340, and with wrong-path modelling, fragmented
// allocation and no warmup.
func TestMultiMatchesSolo(t *testing.T) {
	// Long enough for the L2 TLB to evict, so the policies disagree.
	const instr = 400_000
	fs := identityFactories(t)
	cfgs := map[string]pipeline.Config{}
	for _, penalty := range []uint64{20, 150, 340} {
		cfgs[fmt.Sprintf("penalty=%d", penalty)] = pipeline.DefaultConfig(instr, penalty)
	}
	for name, tweak := range map[string]func(*pipeline.Config){
		"wrong-path": func(c *pipeline.Config) { c.ModelWrongPath = true },
		"fragmented": func(c *pipeline.Config) { c.Alloc = paging.AllocFragmented },
		"no-warmup":  func(c *pipeline.Config) { c.WarmupFraction = 0 },
	} {
		cfg := pipeline.DefaultConfig(instr, 150)
		tweak(&cfg)
		cfgs[name] = cfg
	}
	for cname, cfg := range cfgs {
		for _, wname := range []string{"db-000", "db-003", "sci-000"} {
			w := workloads.ByName(wname)
			fused, err := runFused(cfg, fs, trace.NewLimit(w.Source(), instr))
			if err != nil {
				t.Fatalf("%s %s: fused: %v", wname, cname, err)
			}
			if len(fused) != len(fs) {
				t.Fatalf("fused pass returned %d results, want %d", len(fused), len(fs))
			}
			cycles := map[uint64]bool{}
			for _, r := range fused {
				cycles[r.Cycles] = true
			}
			if len(cycles) < 3 {
				t.Errorf("%s %s: only %d distinct cycle counts over %d policies; the run is too short to tell them apart", wname, cname, len(cycles), len(fs))
			}
			for i, f := range fs {
				solo, err := runSolo(cfg, f, trace.NewLimit(w.Source(), instr))
				if err != nil {
					t.Fatalf("%s %s %s: solo: %v", wname, cname, f.Name, err)
				}
				if !reflect.DeepEqual(fused[i], solo) {
					t.Errorf("%s %s %s: fused result differs from solo\nfused: %+v\nsolo:  %+v",
						wname, cname, f.Name, fused[i], solo)
				}
			}
		}
	}
}

// TestMultiShortTraceError: a trace that ends before warmup fails the
// fused pass with the error a one-policy machine reports.
func TestMultiShortTraceError(t *testing.T) {
	cfg := pipeline.DefaultConfig(1_000_000, 150)
	w := workloads.ByName("spec-000")
	fs := identityFactories(t)
	_, ferr := runFused(cfg, fs, trace.NewLimit(w.Source(), 1000))
	_, serr := runSolo(cfg, fs[0], trace.NewLimit(w.Source(), 1000))
	if ferr == nil || serr == nil || ferr.Error() != serr.Error() {
		t.Fatalf("short trace: fused error %v, solo error %v; want the same error", ferr, serr)
	}
}

// TestMultiRejectsRadix: the radix walker's PTE fetches make the cache
// state policy-dependent, so a radix machine takes one policy only.
func TestMultiRejectsRadix(t *testing.T) {
	cfg := pipeline.DefaultConfig(100_000, 150)
	cfg.UseRadixWalker = true
	if _, err := pipeline.NewMulti(cfg, []tlb.Policy{policy.NewLRU(), policy.NewSRRIP()}, newLRU); err == nil {
		t.Fatal("NewMulti accepted two policies under the radix walker")
	}
	if _, err := pipeline.NewMulti(cfg, []tlb.Policy{policy.NewLRU()}, newLRU); err != nil {
		t.Fatalf("one radix policy rejected: %v", err)
	}
	if _, err := pipeline.NewMulti(pipeline.DefaultConfig(1000, 150), nil, newLRU); err == nil {
		t.Fatal("NewMulti accepted an empty policy list")
	}
	m, err := pipeline.NewMulti(pipeline.DefaultConfig(1000, 150), []tlb.Policy{policy.NewLRU(), policy.NewSRRIP()}, newLRU)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(trace.NewLimit(workloads.ByName("spec-000").Source(), 1000)); err == nil {
		t.Fatal("Run accepted a two-policy machine")
	}
}

// loopSource repeats recs until n records have been produced.
type loopSource struct {
	recs []trace.Record
	i, n int
}

func (s *loopSource) Next(rec *trace.Record) bool {
	if s.i >= s.n {
		return false
	}
	*rec = s.recs[s.i%len(s.recs)]
	s.i++
	return true
}

func (s *loopSource) Reset() { s.i = 0 }

// TestRunAllocsIndependentOfLength: the per-record loop allocates
// nothing. Over a fixed page set, a run of 200k records allocates
// exactly what a run of 2k records does.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	// 3000 data pages overflow both TLB levels, so the loop exercises
	// L1 and L2 misses, walks, evictions and every branch class.
	var recs []trace.Record
	for i := uint64(0); i < 3000; i++ {
		pc := 0x400000 + (i%64)*0x40
		recs = append(recs,
			trace.Record{PC: pc, Class: trace.ClassLoad, EA: 0x10000000 + (i*7919%3000)<<12, Skip: 2},
			trace.Record{PC: pc + 8, Class: trace.ClassStore, EA: 0x10000000 + i<<12},
			trace.Record{PC: pc + 16, Class: trace.ClassCondBranch, Taken: i%3 == 0, Target: pc + 0x80},
			trace.Record{PC: pc + 24, Class: trace.ClassUncondDirect, Taken: true, Target: pc + 0x100},
			trace.Record{PC: pc + 32, Class: trace.ClassUncondIndirect, Taken: true, Target: 0x500000 + (i%5)*0x40})
	}
	cfg := pipeline.DefaultConfig(0, 150) // drain the source; warm from the start
	m, err := pipeline.NewMulti(cfg, []tlb.Policy{
		policy.NewLRU(), policy.NewSRRIP(),
		core.MustNew(core.DefaultConfig()), policy.NewGHRP(4096),
	}, newLRU)
	if err != nil {
		t.Fatal(err)
	}
	src := &loopSource{recs: recs}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			src.i, src.n = 0, n
			if _, err := m.RunMulti(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2_000), allocs(200_000)
	if long != short {
		t.Errorf("a 200k-record run allocates %v times, a 2k-record run %v: the per-record loop allocates", long, short)
	}
}
