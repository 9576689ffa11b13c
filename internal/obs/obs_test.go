package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "help")
	b := r.Counter("c", "other help ignored")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Add(3)
	if got := b.Value(); got != 3 {
		t.Fatalf("shared counter value = %d, want 3", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("c", "wrong kind")
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-556) > 1e-9 {
		t.Fatalf("sum = %v, want 556", got)
	}
	want := []uint64{2, 1, 1, 1} // per-bucket (non-cumulative); 500 lands in +Inf
	for i, c := range h.BucketCounts() {
		if c != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d", i, c, want[i])
		}
	}
}

// TestRegistryConcurrent hammers every metric kind plus the exporters
// from many goroutines; run under -race this is the registry's
// thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			label := []string{"a", "b", "c"}[id%3]
			for i := 0; i < iters; i++ {
				r.Counter("hits", "h").Inc()
				r.Gauge("inflight", "h").Add(1)
				r.Histogram("latency", "h", DurationBuckets()).Observe(float64(i) * 1e-4)
				r.CounterVec("by_level", "h", "level").With(label).Inc()
				r.GaugeVec("residency", "h", "pool").With(label).Add(1)
				r.Gauge("inflight", "h").Add(-1)
			}
		}(w)
	}
	// Exporters and snapshots race the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("WritePrometheus: %v", err)
			}
			if err := r.WriteJSON(&sb); err != nil {
				t.Errorf("WriteJSON: %v", err)
			}
			_ = r.Snapshot()
		}
	}()
	wg.Wait()

	total := uint64(workers * iters)
	if got := r.Counter("hits", "h").Value(); got != total {
		t.Fatalf("hits = %d, want %d", got, total)
	}
	if got := r.Gauge("inflight", "h").Value(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
	if got := r.Histogram("latency", "h", nil).Count(); got != total {
		t.Fatalf("latency count = %d, want %d", got, total)
	}
	var vecSum uint64
	for _, k := range []string{"a", "b", "c"} {
		vecSum += r.CounterVec("by_level", "h", "level").With(k).Value()
	}
	if vecSum != total {
		t.Fatalf("by_level sum = %d, want %d", vecSum, total)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	v := r.CounterVec("v", "", "k")

	c.Add(5)
	g.Set(10)
	v.With("x").Add(2)
	before := r.Snapshot()

	c.Add(3)
	g.Set(4) // gauges may move down
	v.With("x").Inc()
	v.With("y").Inc() // new series
	delta := r.Snapshot().Delta(before)

	want := Snapshot{"c": 3, "g": -6, `v{k="x"}`: 1, `v{k="y"}`: 1}
	if len(delta) != len(want) {
		t.Fatalf("delta = %v, want %v", delta, want)
	}
	for k, dv := range want {
		if delta[k] != dv {
			t.Fatalf("delta[%s] = %v, want %v", k, delta[k], dv)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("chirp_test_hits_total", "Hits.").Add(7)
	r.Gauge("chirp_test_depth", "Depth.").Set(-2)
	r.Histogram("chirp_test_seconds", "Latency.", []float64{0.1, 1}).Observe(0.05)
	r.CounterVec("chirp_test_by_level", "Per level.", "level").With("l2").Add(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP chirp_test_hits_total Hits.\n",
		"# TYPE chirp_test_hits_total counter\n",
		"chirp_test_hits_total 7\n",
		"# TYPE chirp_test_depth gauge\n",
		"chirp_test_depth -2\n",
		"# TYPE chirp_test_seconds histogram\n",
		`chirp_test_seconds_bucket{le="0.1"} 1` + "\n",
		`chirp_test_seconds_bucket{le="1"} 1` + "\n",
		`chirp_test_seconds_bucket{le="+Inf"} 1` + "\n",
		"chirp_test_seconds_sum 0.05\n",
		"chirp_test_seconds_count 1\n",
		"# TYPE chirp_test_by_level counter\n",
		`chirp_test_by_level{level="l2"} 9` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits", "").Add(4)
	r.CounterVec("by_level", "", "level").With("l1").Add(2)
	r.Histogram("lat", "", []float64{1}).Observe(0.5)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if string(got["hits"]) != "4" {
		t.Fatalf("hits = %s, want 4", got["hits"])
	}
	var vec map[string]uint64
	if err := json.Unmarshal(got["by_level"], &vec); err != nil || vec["l1"] != 2 {
		t.Fatalf("by_level = %s (err %v), want l1:2", got["by_level"], err)
	}
	var hist struct {
		Count   uint64            `json:"count"`
		Sum     float64           `json:"sum"`
		Buckets map[string]uint64 `json:"buckets"`
	}
	if err := json.Unmarshal(got["lat"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 1 || hist.Sum != 0.5 || hist.Buckets["1"] != 1 || hist.Buckets["+Inf"] != 1 {
		t.Fatalf("lat = %+v", hist)
	}
}

// TestHistogramVec: a labelled histogram family exports each member
// under its label pair in all three surfaces — snapshot series,
// Prometheus text (the le label after the family's own), and nested
// JSON — and members share the family's bucket ladder.
func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("phase_seconds", "Per phase.", "phase", []float64{1, 0.1})
	if r.HistogramVec("phase_seconds", "", "phase", nil) != v {
		t.Fatal("re-registration returned a different family")
	}
	v.With("derive").Observe(0.05)
	v.With("derive").Observe(2)
	v.With("store_read").Observe(0.5)

	snap := r.Snapshot()
	for series, want := range map[string]float64{
		`phase_seconds_count{phase="derive"}`:               2,
		`phase_seconds_sum{phase="derive"}`:                 2.05,
		`phase_seconds_bucket{phase="derive",le="0.1"}`:     1,
		`phase_seconds_bucket{phase="derive",le="1"}`:       1,
		`phase_seconds_bucket{phase="derive",le="+Inf"}`:    2,
		`phase_seconds_bucket{phase="store_read",le="1"}`:   1,
		`phase_seconds_bucket{phase="store_read",le="0.1"}`: 0,
	} {
		if got, ok := snap[series]; !ok || got != want {
			t.Errorf("snapshot[%s] = %v (present %v), want %v", series, got, ok, want)
		}
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE phase_seconds histogram\n",
		`phase_seconds_bucket{phase="derive",le="0.1"} 1` + "\n",
		`phase_seconds_bucket{phase="derive",le="+Inf"} 2` + "\n",
		`phase_seconds_sum{phase="store_read"} 0.5` + "\n",
		`phase_seconds_count{phase="store_read"} 1` + "\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, sb.String())
		}
	}

	sb.Reset()
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]map[string]struct {
		Count   uint64            `json:"count"`
		Buckets map[string]uint64 `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatal(err)
	}
	if d := got["phase_seconds"]["derive"]; d.Count != 2 || d.Buckets["1"] != 1 {
		t.Fatalf("JSON derive member = %+v", d)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits", "Hits.").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":    "hits 1",
		"/debug/vars": `"hits": 1`,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Fatalf("%s missing %q:\n%s", path, want, body)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("misses", "")
	path := filepath.Join(t.TempDir(), "run.jsonl")

	m, err := OpenManifest(path, r, "test config=1")
	if err != nil {
		t.Fatal(err)
	}
	c.Add(10)
	if err := m.Record("s", "db-000", "lru", 50*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	c.Add(5)
	if err := m.Record("s", "db-000", "chirp", 30*time.Millisecond, os.ErrDeadlineExceeded); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 {
		t.Fatalf("manifest has %d lines, want 4 (header, 2 rows, end):\n%s", len(lines), raw)
	}

	var hdr struct {
		Version    int    `json:"chirp_manifest"`
		RunID      string `json:"run_id"`
		Config     string `json:"config"`
		ConfigHash string `json:"config_hash"`
		VCS        string `json:"vcs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Version != manifestVersion || hdr.RunID == "" || hdr.Config != "test config=1" ||
		len(hdr.ConfigHash) != 16 || hdr.VCS == "" {
		t.Fatalf("header = %+v", hdr)
	}

	var row struct {
		Scope    string             `json:"scope"`
		Workload string             `json:"workload"`
		Policy   string             `json:"policy"`
		Elapsed  float64            `json:"elapsed_s"`
		Err      string             `json:"err"`
		Metrics  map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Workload != "db-000" || row.Policy != "lru" || row.Metrics["misses"] != 10 {
		t.Fatalf("row 1 = %+v", row)
	}
	if err := json.Unmarshal([]byte(lines[2]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Policy != "chirp" || row.Metrics["misses"] != 5 || row.Err == "" {
		t.Fatalf("row 2 = %+v (deltas must be per-row, not cumulative)", row)
	}

	var end struct {
		End    bool               `json:"end"`
		Totals map[string]float64 `json:"totals"`
	}
	if err := json.Unmarshal([]byte(lines[3]), &end); err != nil {
		t.Fatal(err)
	}
	if !end.End || end.Totals["misses"] != 15 {
		t.Fatalf("end = %+v", end)
	}

	// A second run appends a fresh header to the same file.
	m2, err := OpenManifest(path, r, "test config=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(path)
	if got := strings.Count(string(raw), `"chirp_manifest"`); got != 2 {
		t.Fatalf("stacked manifest has %d headers, want 2", got)
	}
}

func TestServe(t *testing.T) {
	bound, stop, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
