package sim

import (
	"context"
	"testing"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

// multiTenantDoc is a two-tenant population with deliberately skewed
// footprints: tenant "edge" runs a small crypto kernel, tenant "lake" a
// page-hungry random-access scan, so their isolated MPKI must differ.
const multiTenantDoc = `{
  "version": 1, "name": "mt-e2e",
  "clients": [
    {"id": "sign", "tenant": "edge", "rateFraction": 0.5, "template": "crypto"},
    {"id": "scan", "tenant": "lake", "rateFraction": 0.5, "program": {
      "regions": [{"name": "heap", "pages": 16384}],
      "kernels": [{"name": "probe", "loads": 4}],
      "sites": [{"kernel": "probe", "region": "heap", "behavior": "gups", "pagesPerCall": 8}]
    }}
  ]
}`

// TestRunSpecWorkloadEndToEnd drives a spec-compiled multi-tenant
// workload through the full Run pipeline: the combined population and
// each tenant view simulate under CHiRP, capture/replay stays
// bit-identical to the direct path for composite sources, the tenant
// views report distinct MPKI, and the spec hash keys captures apart
// when the master seed changes.
func TestRunSpecWorkloadEndToEnd(t *testing.T) {
	s, err := spec.Parse([]byte(multiTenantDoc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile(s, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTLBOnlyConfig(200000)
	factories, err := Factories([]string{"chirp"})
	if err != nil {
		t.Fatal(err)
	}
	chirp := factories[0].New

	cache := l2stream.NewCache(0)
	defer cache.Close()
	ctx := context.Background()

	comb := c.Combined()
	direct, err := Run(ctx, RunSpec{Workload: comb, Policy: chirp, Config: cfg})
	if err != nil {
		t.Fatalf("combined direct: %v", err)
	}
	replayed, err := Run(ctx, RunSpec{Workload: comb, Policy: chirp, Config: cfg, Cache: cache})
	if err != nil {
		t.Fatalf("combined replay: %v", err)
	}
	if direct != replayed {
		t.Errorf("composite capture/replay diverged: direct %+v, replay %+v", direct, replayed)
	}
	if direct.Instructions == 0 || direct.L2Misses == 0 {
		t.Errorf("combined run measured nothing: %+v", direct)
	}

	views := c.Tenants()
	if len(views) != 2 {
		t.Fatalf("expected 2 tenant views, got %d", len(views))
	}
	mpki := make(map[string]float64, len(views))
	for _, v := range views {
		r, err := Run(ctx, RunSpec{Workload: v, Policy: chirp, Config: cfg, Cache: cache})
		if err != nil {
			t.Fatalf("tenant view %s: %v", v.Name, err)
		}
		mpki[v.Name] = r.MPKI
	}
	if mpki["mt-e2e/edge"] == mpki["mt-e2e/lake"] {
		t.Errorf("tenant views report identical MPKI %.3f despite disjoint footprints", mpki["mt-e2e/edge"])
	}

	// A master-seed override changes the spec hash but not the workload
	// name; the stream cache must treat it as a new capture rather than
	// replaying the stale stream.
	c2, err := spec.Compile(s, spec.Options{Seed: 42, SeedSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Hash == c.Hash || c2.Combined().Name != comb.Name {
		t.Fatalf("seed override: hash %s vs %s, name %s vs %s",
			c2.Hash, c.Hash, c2.Combined().Name, comb.Name)
	}
	before := cache.Len()
	if _, err := Run(ctx, RunSpec{Workload: c2.Combined(), Policy: chirp, Config: cfg, Cache: cache}); err != nil {
		t.Fatalf("seed-overridden combined: %v", err)
	}
	if cache.Len() != before+1 {
		t.Errorf("seed-overridden spec did not get its own capture (cache %d -> %d)", before, cache.Len())
	}
}
