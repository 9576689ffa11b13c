package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"github.com/chirplab/chirp/internal/engine"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// goldenTimingDigest pins the timing suite's results: a digest of
// Instructions, Cycles, IPC bits, L2TLBMisses, PageWalks and
// DRAMAccesses over SuiteN(4) × PaperPolicies at walk penalties 20 and
// 150 and timingGoldenInstr instructions, in result order. It was recorded from the per-cell schedule (one
// pipeline machine per (workload, policy)), so it also holds the shared
// multi-policy pass to the numbers that schedule produced.
const goldenTimingDigest uint64 = 0x90ae90ea1b87e38f

// timingGoldenInstr is long enough for the L2 TLB to evict, so the
// policies' results differ.
const timingGoldenInstr = 400_000

func TestTimingSuiteGolden(t *testing.T) {
	ws := workloads.SuiteN(4)
	pols, err := Factories(PaperPolicies)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, penalty := range []uint64{20, 150} {
		rs, err := RunSuiteTimingCtx(context.Background(), ws, pols, pipeline.DefaultConfig(timingGoldenInstr, penalty), SuiteOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(ws)*len(pols) {
			t.Fatalf("penalty %d: %d results, want %d", penalty, len(rs), len(ws)*len(pols))
		}
		for _, r := range rs {
			put(r.Instructions)
			put(r.Cycles)
			put(math.Float64bits(r.IPC))
			put(r.L2TLBMisses)
			put(r.PageWalks)
			put(r.DRAMAccesses)
		}
	}
	if got := h.Sum64(); got != goldenTimingDigest {
		t.Errorf("timing suite digest = %#x, want %#x", got, goldenTimingDigest)
	}
}

// soloTiming runs one (workload, policy) cell on its own machine.
func soloTiming(t *testing.T, w *workloads.Workload, p NamedFactory, cfg pipeline.Config) pipeline.Result {
	t.Helper()
	m, err := pipeline.New(cfg, p.New(), func() tlb.Policy { return policy.NewLRU() })
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(trace.NewLimit(w.Source(), cfg.Instructions))
	if err != nil {
		t.Fatal(err)
	}
	res.Policy = p.Name
	return res
}

// TestTimingSuiteSharedPass: under the fixed-penalty walker the suite
// runs one engine job per workload, and every row equals a solo
// machine's result for its cell, in workload-major order.
func TestTimingSuiteSharedPass(t *testing.T) {
	ws := workloads.SuiteN(3)
	pols, err := Factories([]string{"lru", "srrip", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig(timingGoldenInstr, 150)
	var c engine.Counters
	rs, err := RunSuiteTimingCtx(context.Background(), ws, pols, cfg, SuiteOptions{Workers: 2, Sink: &c})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Done.Load(); got != int64(len(ws)) {
		t.Errorf("suite ran %d engine jobs, want one per workload (%d)", got, len(ws))
	}
	for i, r := range rs {
		w, p := ws[i/len(pols)], pols[i%len(pols)]
		if r.Workload != w.Name || r.Policy != p.Name || r.Profile != w.Profile() {
			t.Fatalf("row %d = (%s, %s), want (%s, %s)", i, r.Workload, r.Policy, w.Name, p.Name)
		}
		if want := soloTiming(t, w, p, cfg); !reflect.DeepEqual(r.Result, want) {
			t.Errorf("%s/%s: shared-pass row differs from solo\ngot:  %+v\nwant: %+v", w.Name, p.Name, r.Result, want)
		}
	}
}

// TestTimingSuiteRadix: the radix walker cannot share a pass, so the
// suite falls back to one job and machine per cell — and still returns
// the right rows.
func TestTimingSuiteRadix(t *testing.T) {
	ws := workloads.SuiteN(2)
	pols, err := Factories([]string{"lru", "srrip", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig(timingGoldenInstr, 150)
	cfg.UseRadixWalker = true
	cfg.PSC.EntriesPerLevel = 32
	var c engine.Counters
	rs, err := RunSuiteTimingCtx(context.Background(), ws, pols, cfg, SuiteOptions{Workers: 2, Sink: &c})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Done.Load(); got != int64(len(ws)*len(pols)) {
		t.Errorf("radix suite ran %d engine jobs, want one per cell (%d)", got, len(ws)*len(pols))
	}
	for i, r := range rs {
		w, p := ws[i/len(pols)], pols[i%len(pols)]
		if r.Workload != w.Name || r.Policy != p.Name {
			t.Fatalf("row %d = (%s, %s), want (%s, %s)", i, r.Workload, r.Policy, w.Name, p.Name)
		}
		if want := soloTiming(t, w, p, cfg); !reflect.DeepEqual(r.Result, want) {
			t.Errorf("%s/%s: radix row differs from solo\ngot:  %+v\nwant: %+v", w.Name, p.Name, r.Result, want)
		}
	}
}

// TestTimingSuitePanicBlamesCell: a policy that panics inside the
// shared pass fails only its own (workload, policy) cell; the healthy
// policies of that workload still deliver their rows.
func TestTimingSuitePanicBlamesCell(t *testing.T) {
	ws := workloads.SuiteN(2)
	pols := []NamedFactory{
		{Name: "lru", New: mustFactoryFor(t, "lru")},
		{Name: "panic-pol", New: func() tlb.Policy { return panicPolicy{} }},
		{Name: "chirp", New: mustFactoryFor(t, "chirp")},
	}
	cfg := pipeline.DefaultConfig(timingGoldenInstr, 150)
	rs, err := RunSuiteTimingCtx(context.Background(), ws, pols, cfg, SuiteOptions{Workers: 1, Scope: "s"})
	if err == nil {
		t.Fatal("panicking policy produced no error")
	}
	var je *engine.JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %v carries no job identity", err)
	}
	if want := (engine.Key{Scope: "s", Workload: ws[0].Name, Policy: "panic-pol"}); je.Key != want {
		t.Errorf("blamed %v, want %v", je.Key, want)
	}
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not expose the panic", err)
	}
	if len(rs) != len(ws)*len(pols) {
		t.Fatalf("%d rows, want %d", len(rs), len(ws)*len(pols))
	}
	for _, i := range []int{0, 2} {
		if want := soloTiming(t, ws[0], pols[i], cfg); !reflect.DeepEqual(rs[i].Result, want) {
			t.Errorf("healthy %s row lost or wrong:\ngot:  %+v\nwant: %+v", pols[i].Name, rs[i].Result, want)
		}
	}
	if rs[1].Instructions != 0 {
		t.Errorf("the panicking policy's row is not empty: %+v", rs[1])
	}
}

// TestTimingSuiteCheckpointKeys: the shared-pass jobs checkpoint under
// the fused key scheme — Policy is the "+"-joined policy list — and a
// rerun restores every workload without simulating it.
func TestTimingSuiteCheckpointKeys(t *testing.T) {
	ws := workloads.SuiteN(2)
	pols, err := Factories([]string{"lru", "chirp"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig(timingGoldenInstr, 150)
	path := t.TempDir() + "/timing.ckpt"
	run := func() ([]TimingResult, *engine.Counters) {
		t.Helper()
		ck, err := engine.Open(path, "timing-test")
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		var c engine.Counters
		rs, err := RunSuiteTimingCtx(context.Background(), ws, pols, cfg, SuiteOptions{Workers: 1, Sink: &c, Checkpoint: ck, Scope: "fig8"})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			var rows []TimingResult
			if ok, err := ck.Get(engine.Key{Scope: "fig8", Workload: w.Name, Policy: "lru+chirp"}, &rows); !ok || err != nil || len(rows) != len(pols) {
				t.Errorf("checkpoint row for %s: ok %v, err %v, %d rows", w.Name, ok, err, len(rows))
			}
		}
		return rs, &c
	}
	first, _ := run()
	resumed, c := run()
	if c.Resumed.Load() != int64(len(ws)) || c.Done.Load() != 0 {
		t.Errorf("rerun restored %d and ran %d jobs, want %d and 0", c.Resumed.Load(), c.Done.Load(), len(ws))
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(resumed)
	if !bytes.Equal(a, b) {
		t.Errorf("restored rows differ from the run that wrote them")
	}
}
