package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/trace"
)

func TestMain(m *testing.M) {
	// The benchmark re-executes its own binary for every sweep; under
	// `go test` that binary is this test binary.
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode, os.Args[len(os.Args)-1:]))
	}
	os.Exit(m.Run())
}

// runTiny runs one workload at a tiny scale and returns its result.
func runTiny(t *testing.T, workload string, traced bool) result {
	t.Helper()
	tr := "0"
	if traced {
		tr = "1"
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-root", t.TempDir(), "--workload", workload, "--seed", "3", "--seconds", "0",
		"--trace", tr, "-fig7-n", "12", "-fig8-n", "3", "-instr", "100000"}
	if code := parentMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s", workload, tr, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, stdout.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, tr, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// wantMetrics checks that res holds exactly the named metrics, with
// their units and finite values.
func wantMetrics(t *testing.T, label string, res result, units map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(units) {
		t.Errorf("%s: %d metrics, want %d", label, len(res.Metrics), len(units))
	}
	for name, unit := range units {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, name)
		case m.Unit != unit:
			t.Errorf("%s: %s unit %q, want %q", label, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", label, name, m.Value)
		}
	}
}

func TestWorkloadsAtTinyScale(t *testing.T) {
	e2e := map[string]string{}
	for _, m := range endToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, d := range layerDefs() {
		layers[d.Name] = d.Unit
	}
	traced := map[string]result{}
	for _, w := range workloadNames {
		res := runTiny(t, w, false)
		wantMetrics(t, w, res, e2e)
		for _, name := range []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mib", "job_ms_p50"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, res.Metrics[name].Value)
			}
		}
		traced[w] = runTiny(t, w, true)
		wantMetrics(t, w+" traced", traced[w], layers)
	}

	v := func(w, name string) float64 { return traced[w].Metrics[name].Value }
	// Isolation: the warm sweep generates and captures nothing.
	for _, name := range []string{"workloads.records", "workloads.gen_s", "l2stream.disk_writes", "l2stream.derived_builds"} {
		if got := v("fig7_warm", name); got != 0 {
			t.Errorf("fig7_warm: %s = %v, want 0", name, got)
		}
	}
	if got := v("fig7_warm", "l2stream.disk_hit_ratio"); got != 1 {
		t.Errorf("fig7_warm: l2stream.disk_hit_ratio = %v, want 1", got)
	}
	// The cold sweep does every capture layer's work.
	for _, name := range []string{"workloads.records", "l2stream.capture_s", "l2stream.disk_writes", "l2stream.derived_builds", "sim.walk_s"} {
		if got := v("fig7_cold", name); got <= 0 {
			t.Errorf("fig7_cold: %s = %v, want > 0", name, got)
		}
	}
	// The timing sweep never touches l2stream or the replay walk.
	for name := range layers {
		if (strings.HasPrefix(name, "l2stream.") || strings.HasPrefix(name, "sim.")) && v("fig8_timing", name) != 0 {
			t.Errorf("fig8_timing: %s = %v, want 0", name, v("fig8_timing", name))
		}
	}
	for _, name := range []string{"workloads.records", "pipeline.run_s", "pipeline.ipc", "tlb.l2_lookups"} {
		if got := v("fig8_timing", name); got <= 0 {
			t.Errorf("fig8_timing: %s = %v, want > 0", name, got)
		}
	}
	// Simulated counts do not depend on the store's temperature.
	for _, name := range []string{"tlb.l2_lookups", "tlb.l2_misses", "core.predictions", "experiments.chirp_mpki_red_pct"} {
		if c, w := v("fig7_cold", name), v("fig7_warm", name); c != w {
			t.Errorf("%s: cold %v, warm %v", name, c, w)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the metric tables and the
// workload list in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDef struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.Name || b.EndToEnd[i].Unit != m.Unit {
			t.Errorf("end_to_end[%d] = %s/%s, benchmark %s/%s", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, m.Name, m.Unit)
		}
	}
	defs := layerDefs()
	if len(b.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layers.json %d", len(b.PerLayer), len(defs))
	}
	for i, d := range defs {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, layers.json %s/%s/%s", i, got, d.Name, d.Unit, d.Better)
		}
		for _, m := range d.Moves {
			if !strings.Contains(string(data), `"`+m+`"`) {
				t.Errorf("%s moves unknown metric %s", d.Name, m)
			}
		}
		for _, w := range d.On {
			found := false
			for _, n := range workloadNames {
				found = found || n == w
			}
			if !found {
				t.Errorf("%s names unknown workload %s", d.Name, w)
			}
		}
	}
}

// TestPinnedCheck checks that every scale the benchmark and its tests
// run at has a recorded reference digest, and that a digest that does
// not match fails every sampled cell.
func TestPinnedCheck(t *testing.T) {
	for _, key := range []string{
		"fig7 seed=0 n=870 instr=1000000", "fig8 seed=0 n=32 instr=1000000",
		"fig7 seed=0 n=12 instr=100000", "fig8 seed=0 n=3 instr=100000",
	} {
		if referenceDigests[key] == "" {
			t.Errorf("baseline.json records no reference digest for %q", key)
		}
	}
	r := &runner{c: config{workload: "fig8_timing", fig8N: 3, instr: 100_000}, stderr: io.Discard}
	var err error
	if r.suite, err = compileSuite(7, r.c.fig8N); err != nil {
		t.Fatal(err)
	}
	if err := r.pinnedCheck(); err != nil || r.attempted != 18 || r.failed != 0 {
		t.Fatalf("recorded digest: err %v, %d attempted, %d failed; want 18, 0", err, r.attempted, r.failed)
	}
	key := r.refKey()
	want := referenceDigests[key]
	defer func() { referenceDigests[key] = want }()
	referenceDigests[key] = "0000000000000000"
	if err := r.pinnedCheck(); err != nil || r.failed != 18 {
		t.Fatalf("wrong digest: err %v, %d failed; want 18", err, r.failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 90); p != 5 {
		t.Errorf("p90 = %v, want 5", p)
	}
}

// TestTimedSourceKeepsSequence checks that the timing wrapper yields
// the wrapped source's records unchanged, through both read paths.
func TestTimedSourceKeepsSequence(t *testing.T) {
	ws, err := compileSuite(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		want := trace.Collect(trace.NewLimit(w.Source(), 50_000))
		viaNext := trace.Collect(trace.NewLimit(newTimedSource(w.Source()), 50_000))
		ts := newTimedSource(w.Source())
		viaBlocks := trace.Collect(trace.Unblock(trace.NewLimit(ts, 50_000)))
		if len(want) == 0 || len(viaNext) != len(want) || len(viaBlocks) != len(want) {
			t.Fatalf("%s: %d/%d/%d records", w.Name, len(want), len(viaNext), len(viaBlocks))
		}
		for i := range want {
			if viaNext[i] != want[i] || viaBlocks[i] != want[i] {
				t.Fatalf("%s: record %d differs", w.Name, i)
			}
		}
		if ts.records == 0 || ts.ns <= 0 {
			t.Errorf("%s: timed source saw %d records in %dns", w.Name, ts.records, ts.ns)
		}
	}
}
