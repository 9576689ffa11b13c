package l2stream

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/chirplab/chirp/internal/trace"
)

// TestRaceDerivedClose hammers the surfaces that cross goroutines in a
// real sweep at the same time: derived-view memoization on a cached
// stream (single-flight slots plus the growth-hook accounting
// callback into the cache) and Cache.Close tearing the cache down
// underneath it, with an over-budget verdict in the map. It asserts no
// outcome beyond the documented contracts — views stay correct and
// streams handed out before Close keep working — and leaves the
// interleavings to the race detector (CI runs this package with -race
// -count=2).
func TestRaceDerivedClose(t *testing.T) {
	recs := testRecords(4000)
	cfg := testConfig(6000)
	c := NewCache(0)
	capture := func(opts CaptureOptions) (*Stream, error) {
		return Capture(trace.NewSliceSource(recs), cfg, opts)
	}
	inmem, err := c.GetOrCapture(Key{Workload: "mem", Config: cfg}, capture)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := int(inmem.Events())
	overBudget := func(CaptureOptions) (*Stream, error) { return nil, ErrOverBudget }
	if _, err := c.GetOrCapture(Key{Workload: "big", Config: cfg}, overBudget); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("over-budget capture: %v", err)
	}

	// Several small view families so the builders contend on the
	// derivedMu map as well as on individual slots.
	specs := make([]*DerivedSpec, 4)
	for i := range specs {
		specs[i] = &DerivedSpec{
			Key:   fmt.Sprintf("racestress/v1/%d", i),
			Build: func(*Stream) DerivedBuilder { return &countBuilder{} },
			Bytes: func(any) int64 { return 8 },
		}
	}

	const builders, rounds = 3, 400
	var wg sync.WaitGroup
	start := make(chan struct{})

	for g := 0; g < builders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				v, err := inmem.Derived(specs[i%len(specs)])
				if err != nil {
					t.Errorf("Derived on a cached stream: %v", err)
					return
				}
				if n := int(v.(uint64)); n != wantEvents {
					t.Errorf("derived view sees %d events, want %d", n, wantEvents)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := c.Close(); err != nil {
			t.Errorf("Cache.Close under load: %v", err)
		}
	}()

	close(start)
	wg.Wait()

	// Derived views remain valid after the cache is gone — the stream
	// owns them, the cache only accounted them.
	for _, spec := range specs {
		v, err := inmem.Derived(spec)
		if err != nil || int(v.(uint64)) != wantEvents {
			t.Errorf("derived view %q after close: %v, %v", spec.Key, v, err)
		}
	}
}
