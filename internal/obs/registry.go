package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// kind discriminates registry entries.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterVec
	kindGaugeVec
	kindHistogramVec
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterVec:
		return "counter"
	case kindGauge, kindGaugeVec:
		return "gauge"
	case kindHistogram, kindHistogramVec:
		return "histogram"
	}
	return "untyped"
}

// entry is one registered metric (or family).
type entry struct {
	name string
	help string
	kind kind

	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	counterVec *CounterVec
	gaugeVec   *GaugeVec
	histVec    *HistogramVec
}

// Registry holds named metrics. Registration is get-or-create and
// idempotent: asking twice for the same name returns the same metric,
// so instrumented packages can declare their metrics as package-level
// variables against the Default registry without init-order coupling.
// Re-registering a name as a different kind panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu     sync.RWMutex
	order  []*entry // registration order, for stable export
	byName map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*entry{}}
}

// Default is the process-wide registry every instrumented layer
// publishes into and every exporter serves from.
var Default = NewRegistry()

// lookup returns the entry for name, creating it via mk under the
// write lock when absent, and panics on a kind mismatch.
func (r *Registry) lookup(name string, k kind, mk func() *entry) *entry {
	r.mu.RLock()
	e := r.byName[name]
	r.mu.RUnlock()
	if e == nil {
		r.mu.Lock()
		if e = r.byName[name]; e == nil {
			e = mk()
			r.byName[name] = e
			r.order = append(r.order, e)
		}
		r.mu.Unlock()
	}
	if e.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, e.kind, k))
	}
	return e
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, kindCounter, func() *entry {
		return &entry{name: name, help: help, kind: kindCounter, counter: &Counter{}}
	}).counter
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, kindGauge, func() *entry {
		return &entry{name: name, help: help, kind: kindGauge, gauge: &Gauge{}}
	}).gauge
}

// Histogram returns the named histogram, registering it on first use
// with the given bucket upper bounds (ignored when already present).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.lookup(name, kindHistogram, func() *entry {
		return &entry{name: name, help: help, kind: kindHistogram, hist: newHistogram(bounds)}
	}).hist
}

// CounterVec returns the named single-label counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return r.lookup(name, kindCounterVec, func() *entry {
		return &entry{name: name, help: help, kind: kindCounterVec,
			counterVec: &CounterVec{family[Counter]{label: label, m: map[string]*Counter{}}}}
	}).counterVec
}

// GaugeVec returns the named single-label gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return r.lookup(name, kindGaugeVec, func() *entry {
		return &entry{name: name, help: help, kind: kindGaugeVec,
			gaugeVec: &GaugeVec{family[Gauge]{label: label, m: map[string]*Gauge{}}}}
	}).gaugeVec
}

// HistogramVec returns the named single-label histogram family, every
// member bucketed by bounds (ignored when already present).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return r.lookup(name, kindHistogramVec, func() *entry {
		b := append([]float64(nil), bounds...)
		mk := func() *Histogram { return newHistogram(b) }
		return &entry{name: name, help: help, kind: kindHistogramVec,
			histVec: &HistogramVec{family[Histogram]{label: label, mk: mk, m: map[string]*Histogram{}}}}
	}).histVec
}

// entries returns a stable copy of the registration list.
func (r *Registry) entries() []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*entry(nil), r.order...)
}

// series renders the exported series name for one label pair
// ("name" when label is empty).
func series(name, label, value string) string {
	if label == "" {
		return name
	}
	return name + "{" + label + "=" + strconv.Quote(value) + "}"
}

// bucketSeries renders a histogram bucket's series name: the le label,
// after the family's own label pair when there is one.
func bucketSeries(name, label, value, le string) string {
	if label == "" {
		return series(name+"_bucket", "le", le)
	}
	return name + "_bucket{" + label + "=" + strconv.Quote(value) + ",le=" + strconv.Quote(le) + "}"
}

// histSnapshot adds one histogram's _count, _sum and cumulative
// _bucket series to s, under the label pair when label is non-empty.
func histSnapshot(s Snapshot, name, label, value string, h *Histogram) {
	s[series(name+"_count", label, value)] = float64(h.Count())
	s[series(name+"_sum", label, value)] = h.Sum()
	cum := uint64(0)
	counts := h.BucketCounts()
	for i, b := range h.Bounds() {
		cum += counts[i]
		s[bucketSeries(name, label, value, formatFloat(b))] = float64(cum)
	}
	s[bucketSeries(name, label, value, "+Inf")] = float64(h.Count())
}

// Snapshot is a flat point-in-time view of a registry: fully-qualified
// series name → value. Vec members appear as name{label="value"};
// histograms expand to name_count, name_sum and cumulative
// name_bucket{le="bound"} series — the Prometheus data model, so
// snapshots diff against scrapes directly.
type Snapshot map[string]float64

// Snapshot captures every registered series.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	for _, e := range r.entries() {
		switch e.kind {
		case kindCounter:
			s[e.name] = float64(e.counter.Value())
		case kindGauge:
			s[e.name] = float64(e.gauge.Value())
		case kindHistogram:
			histSnapshot(s, e.name, "", "", e.hist)
		case kindHistogramVec:
			for _, k := range e.histVec.snapshotKeys() {
				histSnapshot(s, e.name, e.histVec.label, k, e.histVec.With(k))
			}
		case kindCounterVec:
			for _, k := range e.counterVec.snapshotKeys() {
				s[series(e.name, e.counterVec.label, k)] = float64(e.counterVec.With(k).Value())
			}
		case kindGaugeVec:
			for _, k := range e.gaugeVec.snapshotKeys() {
				s[series(e.name, e.gaugeVec.label, k)] = float64(e.gaugeVec.With(k).Value())
			}
		}
	}
	return s
}

// Delta returns s minus prev, keeping only series that changed (or are
// new). Gauges may produce negative deltas; counters never do.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{}
	for k, v := range s {
		if dv := v - prev[k]; dv != 0 {
			d[k] = dv
		}
	}
	return d
}

// formatFloat renders a float the way both exporters want it: integral
// values without an exponent, everything else in shortest form.
func formatFloat(f float64) string {
	out := strconv.FormatFloat(f, 'g', -1, 64)
	// Normalise "1e+06"-style integral shortest forms back to digits so
	// bucket bounds read naturally; non-integral values keep 'g'.
	if f == float64(int64(f)) && strings.ContainsAny(out, "eE") {
		return strconv.FormatInt(int64(f), 10)
	}
	return out
}
