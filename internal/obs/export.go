package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE pair per
// metric, series in registration order, label values sorted.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, e := range r.entries() {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
			return err
		}
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.gauge.Value())
		case kindHistogram:
			err = writePromHistogram(w, e.name, "", "", e.hist)
		case kindHistogramVec:
			for _, k := range e.histVec.snapshotKeys() {
				if err = writePromHistogram(w, e.name, e.histVec.label, k, e.histVec.With(k)); err != nil {
					break
				}
			}
		case kindCounterVec:
			for _, k := range e.counterVec.snapshotKeys() {
				if _, err = fmt.Fprintf(w, "%s %d\n", series(e.name, e.counterVec.label, k), e.counterVec.With(k).Value()); err != nil {
					break
				}
			}
		case kindGaugeVec:
			for _, k := range e.gaugeVec.snapshotKeys() {
				if _, err = fmt.Fprintf(w, "%s %d\n", series(e.name, e.gaugeVec.label, k), e.gaugeVec.With(k).Value()); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram's series, under the label
// pair when label is non-empty (a HistogramVec member).
func writePromHistogram(w io.Writer, name, label, value string, h *Histogram) error {
	counts := h.BucketCounts()
	cum := uint64(0)
	for i, b := range h.Bounds() {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(name, label, value, formatFloat(b)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(name, label, value, "+Inf"), h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %v\n", series(name+"_sum", label, value), h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", series(name+"_count", label, value), h.Count())
	return err
}

// WriteJSON renders the registry as one JSON object in the
// /debug/vars (expvar) style: metric name → value, families as nested
// objects keyed by label value, histograms as {count, sum, buckets}.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := map[string]any{}
	for _, e := range r.entries() {
		switch e.kind {
		case kindCounter:
			out[e.name] = e.counter.Value()
		case kindGauge:
			out[e.name] = e.gauge.Value()
		case kindHistogram:
			out[e.name] = histJSON(e.hist)
		case kindHistogramVec:
			m := map[string]any{}
			for _, k := range e.histVec.snapshotKeys() {
				m[k] = histJSON(e.histVec.With(k))
			}
			out[e.name] = m
		case kindCounterVec:
			m := map[string]uint64{}
			for _, k := range e.counterVec.snapshotKeys() {
				m[k] = e.counterVec.With(k).Value()
			}
			out[e.name] = m
		case kindGaugeVec:
			m := map[string]int64{}
			for _, k := range e.gaugeVec.snapshotKeys() {
				m[k] = e.gaugeVec.With(k).Value()
			}
			out[e.name] = m
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// histJSON is one histogram's {count, sum, buckets} object, buckets
// cumulative and keyed by upper bound.
func histJSON(h *Histogram) map[string]any {
	buckets := map[string]uint64{}
	counts := h.BucketCounts()
	cum := uint64(0)
	for i, b := range h.Bounds() {
		cum += counts[i]
		buckets[formatFloat(b)] = cum
	}
	buckets["+Inf"] = h.Count()
	return map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
}
