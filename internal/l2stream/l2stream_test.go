package l2stream

import (
	"errors"
	"os"
	"sync"
	"testing"

	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
)

func testConfig(instructions uint64) Config {
	return Config{
		L1I:            tlb.Config{Name: "L1 iTLB", Entries: 16, Ways: 4, PageShift: 12},
		L1D:            tlb.Config{Name: "L1 dTLB", Entries: 16, Ways: 4, PageShift: 12},
		PageShift:      12,
		Instructions:   instructions,
		WarmupFraction: 0.5,
	}
}

// testRecords synthesises a deterministic mixed trace that pressures
// the small test L1s: strided loads over many pages, branches, skips.
func testRecords(n int) []trace.Record {
	rng := trace.NewRNG(7)
	recs := make([]trace.Record, n)
	pc := uint64(0x400000)
	for i := range recs {
		pc += uint64(4 * (1 + rng.Intn(8)))
		if pc > 0x500000 {
			pc = 0x400000 // wrap so the code footprint cycles the L1I
		}
		cls := trace.Class(rng.Intn(trace.NumClasses))
		rec := trace.Record{PC: pc, Class: cls, Skip: uint32(rng.Intn(6))}
		switch {
		case cls.IsMemory():
			rec.EA = uint64(rng.Intn(512)) << 12 // 512 pages >> L1D reach
		case cls.IsBranch():
			rec.Taken = rng.Bool(0.6) || cls != trace.ClassCondBranch
			rec.Target = pc + uint64(rng.Intn(1<<10))
		}
		recs[i] = rec
	}
	return recs
}

// referenceEvents independently L1-filters recs the way RunTLBOnly
// does and returns the expected event sequence.
func referenceEvents(t *testing.T, recs []trace.Record, cfg Config) []Event {
	t.Helper()
	l1i, err := tlb.New(cfg.L1I, policy.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	l1d, err := tlb.New(cfg.L1D, policy.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	warmupAt := uint64(float64(cfg.Instructions) * cfg.WarmupFraction)
	if cfg.Instructions == 0 {
		warmupAt = 0
	}
	warmed := warmupAt == 0
	var events []Event
	var instructions uint64
	access := func(l1 *tlb.TLB, pc, vpn uint64, instr bool) {
		a := tlb.Access{PC: pc, VPN: vpn, Instr: instr}
		if _, hit := l1.Lookup(&a); hit {
			return
		}
		kind := EventDataAccess
		if instr {
			kind = EventInstrAccess
		}
		events = append(events, Event{Kind: kind, PC: pc, VPN: vpn})
		l1.Insert(&a, vpn)
	}
	for i := range recs {
		rec := &recs[i]
		instructions += rec.Instructions()
		if !warmed && instructions >= warmupAt {
			warmed = true
			events = append(events, Event{Kind: EventWarmup})
		}
		access(l1i, rec.PC, rec.PC>>cfg.PageShift, true)
		switch {
		case rec.Class.IsMemory():
			access(l1d, rec.PC, rec.EA>>cfg.PageShift, false)
		case rec.Class.IsBranch():
			events = append(events, Event{
				Kind: EventBranch, PC: rec.PC, Target: rec.Target,
				Conditional: rec.Class == trace.ClassCondBranch,
				Indirect:    rec.Class == trace.ClassUncondIndirect,
				Taken:       rec.Taken,
			})
		}
		if cfg.Instructions > 0 && instructions >= cfg.Instructions {
			break
		}
	}
	return events
}

// decodeEvents decodes the whole stream into one freshly zeroed slice
// in blocks of k events, so every field NextBlock leaves untouched for
// an event's Kind stays zero — directly comparable to the reference.
func decodeEvents(t testing.TB, s *Stream, k int) []Event {
	t.Helper()
	evs := make([]Event, s.Events())
	d := s.Decode()
	pos := 0
	for pos < len(evs) {
		n := d.NextBlock(evs[pos:min(pos+k, len(evs))])
		if n == 0 {
			break
		}
		pos += n
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if pos != len(evs) || d.NextBlock(make([]Event, 1)) != 0 {
		t.Fatalf("decoded %d events, stream reports %d (or trailing events)", pos, len(evs))
	}
	return evs
}

func TestCaptureMatchesReference(t *testing.T) {
	recs := testRecords(5000)
	cfg := testConfig(8000)
	s, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{})
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	want := referenceEvents(t, recs, cfg)
	if s.Events() != uint64(len(want)) {
		t.Fatalf("Events() = %d, want %d", s.Events(), len(want))
	}
	got := decodeEvents(t, s, blockEvents)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s.MemBytes() == 0 || float64(s.MemBytes())/float64(s.Events()) > 6 {
		t.Errorf("encoding too fat: %d bytes for %d events", s.MemBytes(), s.Events())
	}
	if err := s.EachBlock(func([]Event) {}); err != nil {
		t.Errorf("EachBlock over a fresh capture: %v", err)
	}
}

func TestCaptureScalars(t *testing.T) {
	recs := testRecords(3000)
	cfg := testConfig(5000)
	s, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Warmed() {
		t.Fatal("capture must cross the warmup boundary")
	}
	if s.WarmupAt() != 2500 {
		t.Errorf("WarmupAt = %d, want 2500", s.WarmupAt())
	}
	if s.WarmupInstructions() < s.WarmupAt() {
		t.Errorf("WarmupInstructions %d < WarmupAt %d", s.WarmupInstructions(), s.WarmupAt())
	}
	if s.Instructions() < cfg.Instructions {
		t.Errorf("Instructions = %d, want >= %d", s.Instructions(), cfg.Instructions)
	}
	if s.L1IMisses() == 0 || s.L1DMisses() == 0 {
		t.Errorf("post-warmup L1 misses = (%d, %d), want both > 0", s.L1IMisses(), s.L1DMisses())
	}
}

func TestCaptureDeterministic(t *testing.T) {
	recs := testRecords(2000)
	cfg := testConfig(3000)
	a, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MemBytes() != b.MemBytes() || a.Events() != b.Events() || a.Records() != b.Records() {
		t.Fatalf("captures diverged: (%d B, %d ev) vs (%d B, %d ev)",
			a.MemBytes(), a.Events(), b.MemBytes(), b.Events())
	}
}

// TestCaptureOverBudget: a capture whose encoded buffer passes
// MaxBytes stops with ErrOverBudget; a budget the buffer fits exactly
// captures the same stream as an unbounded run.
func TestCaptureOverBudget(t *testing.T) {
	recs := testRecords(4000)
	cfg := testConfig(6000)
	mem, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{MaxBytes: 64}); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("64-byte budget: err = %v, want ErrOverBudget", err)
	}
	if _, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{MaxBytes: int64(mem.MemBytes()) - 1}); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("budget one byte short: err = %v, want ErrOverBudget", err)
	}
	fit, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{MaxBytes: int64(mem.MemBytes())})
	if err != nil {
		t.Fatalf("exact budget: %v", err)
	}
	if fit.MemBytes() != mem.MemBytes() || fit.Events() != mem.Events() || fit.Records() != mem.Records() {
		t.Errorf("exact-budget capture diverged from the unbounded one")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	recs := testRecords(2000)
	cfg := testConfig(3000)
	c := NewCache(0)
	defer c.Close()
	var mu sync.Mutex
	captures := 0
	key := Key{Workload: "w0", Config: cfg}
	var wg sync.WaitGroup
	streams := make([]*Stream, 8)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := c.GetOrCapture(key, func(opts CaptureOptions) (*Stream, error) {
				mu.Lock()
				captures++
				mu.Unlock()
				return Capture(trace.NewSliceSource(recs), cfg, opts)
			})
			if err != nil {
				t.Error(err)
				return
			}
			streams[i] = s
		}()
	}
	wg.Wait()
	if captures != 1 {
		t.Errorf("capture ran %d times under concurrency, want 1", captures)
	}
	for i := 1; i < 8; i++ {
		if streams[i] != streams[0] {
			t.Fatal("concurrent callers got distinct streams")
		}
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	recs := testRecords(2000)
	cfg := testConfig(3000)
	probe, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	one := probe.FootprintBytes()
	// Budget for two streams; insert three distinct keys.
	c := NewCache(2*one + one/2)
	defer c.Close()
	for _, w := range []string{"a", "b", "c"} {
		if _, err := c.GetOrCapture(Key{Workload: w, Config: cfg}, func(opts CaptureOptions) (*Stream, error) {
			return Capture(trace.NewSliceSource(recs), cfg, opts)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Used() > c.Budget() {
		t.Errorf("cache over budget: %d > %d", c.Used(), c.Budget())
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d streams after eviction, want 2", c.Len())
	}
}

func TestCacheRetriesFailedCapture(t *testing.T) {
	c := NewCache(0)
	defer c.Close()
	key := Key{Workload: "w", Config: testConfig(100)}
	calls := 0
	fail := func(CaptureOptions) (*Stream, error) {
		calls++
		return nil, os.ErrPermission
	}
	if _, err := c.GetOrCapture(key, fail); err == nil {
		t.Fatal("expected capture error")
	}
	recs := testRecords(500)
	cfg := testConfig(100)
	if _, err := c.GetOrCapture(Key{Workload: "w", Config: cfg}, func(opts CaptureOptions) (*Stream, error) {
		calls++
		return Capture(trace.NewSliceSource(recs), cfg, opts)
	}); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if calls != 2 {
		t.Errorf("capture ran %d times, want 2 (fail + retry)", calls)
	}
}

// TestNextBlockSizesAgree: the block decoder carries its delta state
// across block boundaries, so any block size decodes the same events.
func TestNextBlockSizesAgree(t *testing.T) {
	recs := testRecords(5000)
	cfg := testConfig(8000)
	s, err := Capture(trace.NewSliceSource(recs), cfg, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := decodeEvents(t, s, len(recs)*3)
	for _, k := range []int{1, 2, 7, blockEvents} {
		got := decodeEvents(t, s, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("block size %d, event %d: %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	evs := make([]Event, 4)
	d := &Decoder{buf: []byte{0x07, 0xff}, pageShift: 12} // kind 7 unused
	if d.NextBlock(evs) != 0 {
		t.Fatal("decoder accepted an unknown event kind")
	}
	if d.Err() == nil {
		t.Fatal("decoder must report corruption")
	}
	// Truncated varint payload.
	d = &Decoder{buf: []byte{wireDataAccess, 0x80}, pageShift: 12}
	if d.NextBlock(evs) != 0 || d.Err() == nil {
		t.Fatal("decoder must reject a truncated varint")
	}
	// A buffer holding fewer events than the stream claims.
	s := &Stream{buf: []byte{wireWarmup}, events: 2}
	if err := s.EachBlock(func([]Event) {}); err == nil {
		t.Fatal("EachBlock must reject an event-count mismatch")
	}
}
