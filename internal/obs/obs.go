// Package obs is the simulator's observability core: a dependency-free
// (standard library only) metrics layer with atomic counters, gauges,
// fixed-bucket histograms and single-label metric families, collected
// in a process-wide default Registry with snapshot/delta semantics and
// three export surfaces — an expvar-style JSON view, a Prometheus
// text-format writer, and a JSONL run-manifest emitter that lands next
// to engine checkpoints (see Manifest).
//
// Design constraints, in order:
//
//   - Hot-path safety. The simulation inner loops (TLB lookups, replay
//     events) run tens of millions of iterations per second; nothing in
//     this package may be called from them per event. Instrumented
//     layers aggregate into their existing plain counters and publish
//     deltas at run boundaries (see Publisher), so the measured cost on
//     the replay benchmarks is below the noise floor.
//   - Concurrency. Every metric type is safe for concurrent use from
//     engine workers: counters and gauges are single atomics, histogram
//     buckets are atomic slots, families guard their maps with RWMutex
//     on the lookup fast path.
//   - No third-party dependencies. Exporters speak the Prometheus text
//     exposition format and plain JSON directly.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Publisher is implemented by instrumented components that accumulate
// metrics locally during a run (policies, TLBs) and flush them into
// the registry at run boundaries. Drivers call PublishMetrics once per
// finished run; implementations must make the call idempotent-safe by
// publishing deltas since their previous publish.
type Publisher interface {
	PublishMetrics()
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 metric (in-flight jobs, resident
// bytes).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Bounds are upper
// bucket bounds in ascending order; an implicit +Inf bucket catches
// the rest. Observations, the count and the sum are all atomic, so
// concurrent observers never lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the per-bucket observation counts; the final
// element is the +Inf bucket. The slice is a fresh copy.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// DurationBuckets is the default latency bucket ladder in seconds:
// 1 ms to ~2 min, exponential. Suits engine job latencies, which span
// sub-millisecond replay cells to multi-minute timing runs.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}
}

// family is a set of metrics of one kind keyed by one label value
// (the only shape the simulator needs: per-TLB-level, per-status,
// per-phase). Members are created on first use, by mk when set.
type family[T any] struct {
	label string
	mk    func() *T

	mu sync.RWMutex
	m  map[string]*T
}

// With returns the member for the label value, creating it on first
// use. The fast path is one RLock.
func (f *family[T]) With(value string) *T {
	f.mu.RLock()
	v := f.m[value]
	f.mu.RUnlock()
	if v != nil {
		return v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if v = f.m[value]; v == nil {
		v = new(T)
		if f.mk != nil {
			v = f.mk()
		}
		f.m[value] = v
	}
	return v
}

// Label returns the family's label name.
func (f *family[T]) Label() string { return f.label }

// snapshotKeys returns the label values, sorted, for deterministic
// export order.
func (f *family[T]) snapshotKeys() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := make([]string, 0, len(f.m))
	for k := range f.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterVec is a family of Counters keyed by one label value.
type CounterVec struct{ family[Counter] }

// GaugeVec is a family of Gauges keyed by one label value.
type GaugeVec struct{ family[Gauge] }

// HistogramVec is a family of Histograms keyed by one label value, all
// sharing one bucket ladder (per-phase latencies, say).
type HistogramVec struct{ family[Histogram] }
