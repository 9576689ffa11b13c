package spec

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/workloads"
)

// minimalClients is a small two-client population used across the
// schema tests.
const minimalClients = `{
  "version": 1,
  "name": "pair",
  "clients": [
    {"id": "a", "rateFraction": 0.75, "template": "db"},
    {"id": "b", "rateFraction": 0.25, "template": "web"}
  ]
}`

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte(minimalClients))
	if err != nil {
		t.Fatal(err)
	}
	if s.Interleave == nil || s.Interleave.RunMin != defaultRunMin || s.Interleave.RunMax != defaultRunMax {
		t.Errorf("interleave not defaulted: %+v", s.Interleave)
	}
	for _, cl := range s.Clients {
		if cl.Tenant != cl.ID {
			t.Errorf("client %s: tenant not defaulted to id, got %q", cl.ID, cl.Tenant)
		}
	}

	suite, err := Parse([]byte(`{"version": 1, "name": "s", "suite": {"size": 8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Suite.Categories) != len(workloads.Categories) {
		t.Errorf("suite categories not defaulted: %v", suite.Suite.Categories)
	}

	prog, err := Parse([]byte(`{
	  "version": 1, "name": "p",
	  "clients": [{"id": "a", "rateFraction": 1, "program": {
	    "regions": [{"name": "r", "pages": 16}],
	    "kernels": [{"name": "k"}],
	    "sites": [{"kernel": "k", "region": "r", "behavior": "stream"}]
	  }}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Clients[0].Program
	if p.Kernels[0].CodePages != 1 || p.Kernels[0].Loads != 1 {
		t.Errorf("kernel defaults not applied: %+v", p.Kernels[0])
	}
	if p.Sites[0].PagesPerCall != 1 {
		t.Errorf("site pagesPerCall not defaulted: %+v", p.Sites[0])
	}

	spike, err := Parse([]byte(`{
	  "version": 1, "name": "sp",
	  "clients": [{"id": "a", "rateFraction": 1, "template": "db",
	    "lifecycle": {"pattern": "spike", "period": 100, "width": 10}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if g := spike.Clients[0].Lifecycle.Gain; g != 4 {
		t.Errorf("spike gain not defaulted: got %g, want 4", g)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	s, err := Parse([]byte(minimalClients))
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	after, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("Normalize is not idempotent: re-normalizing changed the canonical encoding")
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	docs := []string{minimalClients, `{"version": 1, "name": "s", "suite": {"size": 870}}`}
	for _, doc := range docs {
		s, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parsing canonical encoding: %v\n%s", err, enc)
		}
		enc2, err := s2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("encode/parse/encode does not round-trip:\n--- first\n%s--- second\n%s", enc, enc2)
		}
	}
}

// TestParseErrors pins the validation surface: every malformed document
// is rejected with a message naming the offending field.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"unknown field", `{"version": 1, "name": "x", "sweet": {}}`, "unknown field"},
		{"bad version", `{"version": 2, "name": "x", "suite": {"size": 1}}`, "unsupported version"},
		{"missing name", `{"version": 1, "suite": {"size": 1}}`, "name is required"},
		{"empty spec", `{"version": 1, "name": "x"}`, "suite section or at least one client"},
		{"zero suite", `{"version": 1, "name": "x", "suite": {"size": 0}}`, "suite.size"},
		{"bad category", `{"version": 1, "name": "x", "suite": {"size": 1, "categories": ["nope"]}}`,
			`unknown template "nope"`},
		{"trailing data", `{"version": 1, "name": "x", "suite": {"size": 1}} {}`, "trailing data"},
		{"missing id", `{"version": 1, "name": "x", "clients": [{"rateFraction": 1, "template": "db"}]}`,
			"id is required"},
		{"dup id", `{"version": 1, "name": "x", "clients": [
			{"id": "a", "rateFraction": 0.5, "template": "db"},
			{"id": "a", "rateFraction": 0.5, "template": "db"}]}`, "duplicate id"},
		{"zero rate", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 0, "template": "db"}]}`,
			"rateFraction"},
		{"rate above one", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1.5, "template": "db"}]}`,
			"rateFraction"},
		{"no model", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1}]}`,
			"exactly one of template and program"},
		{"both models", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1,
			"template": "db", "program": {"regions": [{"name": "r", "pages": 1}],
			"kernels": [{"name": "k"}], "sites": [{"kernel": "k", "region": "r", "behavior": "stream"}]}}]}`,
			"exactly one of template and program"},
		{"bad template", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1, "template": "zzz"}]}`,
			`unknown template "zzz"`},
		{"bad interleave", `{"version": 1, "name": "x", "interleave": {"runMin": 9, "runMax": 2},
			"clients": [{"id": "a", "rateFraction": 1, "template": "db"}]}`, "interleave"},
		{"bad lifecycle pattern", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1,
			"template": "db", "lifecycle": {"pattern": "lunar"}}]}`, "unknown lifecycle pattern"},
		{"diurnal no period", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1,
			"template": "db", "lifecycle": {"pattern": "diurnal"}}]}`, "period"},
		{"spike width over period", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1,
			"template": "db", "lifecycle": {"pattern": "spike", "period": 5, "width": 9}}]}`, "width"},
		{"window empty", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1,
			"template": "db", "lifecycle": {"pattern": "window", "start": 5, "end": 5}}]}`, "end > start"},
		{"program no sites", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1,
			"program": {"regions": [{"name": "r", "pages": 1}], "kernels": [{"name": "k"}], "sites": []}}]}`,
			"at least one region, kernel, and site"},
		{"site bad kernel", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1,
			"program": {"regions": [{"name": "r", "pages": 1}], "kernels": [{"name": "k"}],
			"sites": [{"kernel": "zz", "region": "r", "behavior": "stream"}]}}]}`, `unknown kernel "zz"`},
		{"site bad behavior", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1,
			"program": {"regions": [{"name": "r", "pages": 1}], "kernels": [{"name": "k"}],
			"sites": [{"kernel": "k", "region": "r", "behavior": "warp"}]}}]}`, `unknown behavior "warp"`},
		{"phase arity", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1,
			"program": {"regions": [{"name": "r", "pages": 1}], "kernels": [{"name": "k"}],
			"sites": [{"kernel": "k", "region": "r", "behavior": "stream"}],
			"phases": [{"weights": [1, 2]}]}}]}`, "weights"},
		{"phases need cadence", `{"version": 1, "name": "x", "clients": [{"id": "a", "rateFraction": 1,
			"program": {"regions": [{"name": "r", "pages": 1}], "kernels": [{"name": "k"}],
			"sites": [{"kernel": "k", "region": "r", "behavior": "stream"}],
			"phases": [{"weights": [1]}, {"weights": [1]}]}}]}`, "callsPerPhase"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted invalid document; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestHashRateSensitivity: two specs differing only in one client's
// rate fraction must hash apart, so their persistent L2-stream
// captures can never collide.
func TestHashRateSensitivity(t *testing.T) {
	a, err := Parse([]byte(minimalClients))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(strings.Replace(minimalClients, "0.75", "0.7", 1)))
	if err != nil {
		t.Fatal(err)
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Errorf("specs differing only in a rate fraction share hash %s", ha)
	}
	ha2, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != ha2 {
		t.Errorf("hash is not stable: %s then %s", ha, ha2)
	}
}

// TestHashSeedSubstitution: the capture hash covers the effective seed,
// not the document seed, so a CLI override re-keys captures.
func TestHashSeedSubstitution(t *testing.T) {
	s, err := Parse([]byte(minimalClients))
	if err != nil {
		t.Fatal(err)
	}
	h0, err := s.hashWithSeed(0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := s.hashWithSeed(1)
	if err != nil {
		t.Fatal(err)
	}
	if h0 == h1 {
		t.Error("hash ignores the effective seed")
	}
	plain, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if plain != h0 {
		t.Errorf("Hash() = %s, want hashWithSeed(doc seed) = %s", plain, h0)
	}
}

// TestRegistry validates every checked-in registry spec and pins the
// default's canonical form: the embedded bytes must equal their own
// re-encoding, so `gofmt for specs` holds for the files in the tree.
func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("Names() lists %q but ByName rejects it", name)
		}
		if s.Name == "" {
			t.Errorf("registry spec %q has no name", name)
		}
	}
	if _, ok := ByName("no-such-spec"); ok {
		t.Error("ByName accepted an unknown name")
	}

	enc, err := Default().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, defaultJSON) {
		t.Errorf("default.json is not in canonical form:\n--- checked in\n%s--- canonical\n%s", defaultJSON, enc)
	}
	if Default().Suite == nil || Default().Suite.Size != workloads.SuiteSize {
		t.Errorf("default spec does not declare the %d-workload suite", workloads.SuiteSize)
	}
}

// TestCheckedInSpecs is the CI spec-validation gate: every spec file in
// the repository must parse, validate, compile, and already be in
// canonical form (its bytes equal their own re-encoding).
func TestCheckedInSpecs(t *testing.T) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
	paths := []string{filepath.Join(dir, "internal", "workloads", "spec", "default.json")}
	examples, err := filepath.Glob(filepath.Join(dir, "examples", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Error("no example specs under examples/specs/")
	}
	paths = append(paths, examples...)
	for _, path := range paths {
		rel, _ := filepath.Rel(dir, path)
		t.Run(filepath.ToSlash(rel), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Parse(data)
			if err != nil {
				t.Fatalf("does not validate: %v", err)
			}
			enc, err := s.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, data) {
				t.Error("not in canonical form; re-encode the file with (*Spec).Encode")
			}
			if _, err := Compile(s, Options{}); err != nil {
				t.Fatalf("does not compile: %v", err)
			}
		})
	}
}

// FuzzSpecRoundTrip checks the canonical form on arbitrary documents:
// for any input Parse accepts, re-parsing its encoding succeeds and
// encodes to the same bytes, Normalize on the re-parsed spec succeeds
// and changes nothing, and the content hash survives the round trip.
// The checked-in specs seed the corpus.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, path := range []string{"default.json", filepath.Join("..", "..", "..", "examples", "specs", "multitenant.json")} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(minimalClients))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parsing the canonical encoding: %v\n%s", err, enc)
		}
		enc2, err := s2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("Encode∘Parse is not a fixed point:\n--- first\n%s--- second\n%s", enc, enc2)
		}
		if err := s2.Normalize(); err != nil {
			t.Fatalf("Normalize on a re-parsed spec: %v", err)
		}
		enc3, err := s2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc2, enc3) {
			t.Fatalf("Normalize is not idempotent:\n--- before\n%s--- after\n%s", enc2, enc3)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := s2.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != h2 {
			t.Fatalf("Hash changed across the round trip: %s -> %s", h, h2)
		}
	})
}
