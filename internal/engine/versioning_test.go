package engine

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"gameofcoins/internal/rng"
)

// verSpecV1 and verSpecV2 are two wire formats of one logical kind: v2
// renames the field — a breaking change that, pre-versioning, would have
// silently corrupted cache keys. They register under test_versioned@v1/@v2.
type verSpecV1 struct {
	N int `json:"n"`
}

func (s verSpecV1) Kind() string { return "test_versioned" }
func (s verSpecV1) Tasks() int   { return 1 }
func (s verSpecV1) RunTask(_ context.Context, _ int, _ *rng.Rand) (any, error) {
	return s.N, nil
}
func (s verSpecV1) Aggregate(results []any) (any, error) { return results[0], nil }

type verSpecV2 struct {
	Count int `json:"count"`
}

func (s verSpecV2) Kind() string { return "test_versioned" }
func (s verSpecV2) Tasks() int   { return 1 }
func (s verSpecV2) RunTask(_ context.Context, _ int, _ *rng.Rand) (any, error) {
	return s.Count * 10, nil
}
func (s verSpecV2) Aggregate(results []any) (any, error) { return results[0], nil }

func init() {
	RegisterSpec("test_versioned", 1, DecodeJSON[verSpecV1](),
		SchemaObject(map[string]*Schema{"n": SchemaInt("value")}))
	RegisterSpec("test_versioned", 2, DecodeJSON[verSpecV2](),
		SchemaObject(map[string]*Schema{"count": SchemaInt("value")}))
}

func TestParseKindVersion(t *testing.T) {
	cases := []struct {
		wire    string
		kind    string
		version int
		wantErr bool
	}{
		{wire: "learn_sweep", kind: "learn_sweep", version: 0},
		{wire: "learn_sweep@v1", kind: "learn_sweep", version: 1},
		{wire: "learn_sweep@v12", kind: "learn_sweep", version: 12},
		{wire: "learn_sweep@v0", wantErr: true},
		{wire: "learn_sweep@2", wantErr: true},
		{wire: "learn_sweep@vx", wantErr: true},
		// Only canonical plain-digit suffixes: one version, one spelling.
		{wire: "learn_sweep@v01", wantErr: true},
		{wire: "learn_sweep@v+2", wantErr: true},
		{wire: "learn_sweep@v2x", wantErr: true},
		{wire: "@v1", wantErr: true},
		{wire: "learn_sweep@", wantErr: true},
	}
	for _, c := range cases {
		kind, version, err := ParseKindVersion(c.wire)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseKindVersion(%q) accepted", c.wire)
			}
			continue
		}
		if err != nil || kind != c.kind || version != c.version {
			t.Errorf("ParseKindVersion(%q) = (%q, %d, %v), want (%q, %d)", c.wire, kind, version, err, c.kind, c.version)
		}
	}
}

func TestVersionedKind(t *testing.T) {
	if got := VersionedKind("learn_sweep", 1); got != "learn_sweep" {
		t.Errorf("v1 wire name = %q, want the bare kind", got)
	}
	if got := VersionedKind("learn_sweep", 2); got != "learn_sweep@v2" {
		t.Errorf("v2 wire name = %q", got)
	}
}

// TestVersionResolution: a bare kind resolves to the latest version, pins
// resolve exactly, and the two versions decode through their own decoders.
func TestVersionResolution(t *testing.T) {
	// Bare kind → latest (v2), which decodes "count".
	rs, err := ResolveEnvelope(JobEnvelope{Kind: "test_versioned", Spec: json.RawMessage(`{"count":3}`)})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Version != 2 || rs.Kind != "test_versioned" || rs.WireKind() != "test_versioned@v2" {
		t.Fatalf("bare kind resolved to %+v", rs)
	}
	if v2, ok := rs.Spec.(verSpecV2); !ok || v2.Count != 3 {
		t.Fatalf("decoded %#v", rs.Spec)
	}

	// Pinned v1 decodes "n".
	rs1, err := ResolveEnvelope(JobEnvelope{Kind: "test_versioned@v1", Spec: json.RawMessage(`{"n":3}`)})
	if err != nil {
		t.Fatal(err)
	}
	if rs1.Version != 1 || rs1.WireKind() != "test_versioned" {
		t.Fatalf("pinned v1 resolved to %+v", rs1)
	}
	if v1, ok := rs1.Spec.(verSpecV1); !ok || v1.N != 3 {
		t.Fatalf("decoded %#v", rs1.Spec)
	}

	// The v1 document does not decode under v2 (and vice versa): the schema
	// rejects it with the field's JSON-pointer path before the decoder runs.
	_, err = ResolveEnvelope(JobEnvelope{Kind: "test_versioned", Spec: json.RawMessage(`{"n":3}`)})
	var se *SchemaError
	if !errors.As(err, &se) || se.Path != "/n" {
		t.Fatalf("v1 doc under v2 err = %v (want SchemaError at /n)", err)
	}

	// Unknown version of a known kind names the registered ones.
	if _, err := ResolveEnvelope(JobEnvelope{Kind: "test_versioned@v9"}); err == nil || !strings.Contains(err.Error(), "unknown version 9") {
		t.Fatalf("unknown version err = %v", err)
	}
}

// TestVersionedCacheKeys: v1 keys hash the bare kind (byte-compatible with
// every pre-versioning key), later versions hash kind@vN — so the two
// versions of one kind can never share or split a cache line.
func TestVersionedCacheKeys(t *testing.T) {
	key := func(wire, doc string) string {
		t.Helper()
		rs, err := ResolveEnvelope(JobEnvelope{Kind: wire, Seed: 7, Spec: json.RawMessage(doc)})
		if err != nil {
			t.Fatal(err)
		}
		canonical, err := CanonicalSpecJSON(rs.Spec)
		if err != nil {
			t.Fatal(err)
		}
		return CacheKeyJSON(rs.WireKind(), canonical, 7)
	}
	k1 := key("test_versioned@v1", `{"n":3}`)
	if bare := CacheKeyJSON("test_versioned", json.RawMessage(`{"n":3}`), 7); k1 != bare {
		t.Fatalf("v1 key %s != pre-versioning key %s", k1, bare)
	}
	if k2 := key("test_versioned", `{"count":3}`); k2 == k1 {
		t.Fatal("v1 and v2 share a cache key")
	}
	// Even a byte-identical document must key differently across versions.
	same1 := CacheKeyJSON("test_versioned", json.RawMessage(`{"n":0}`), 7)
	same2 := CacheKeyJSON("test_versioned@v2", json.RawMessage(`{"n":0}`), 7)
	if same1 == same2 {
		t.Fatal("identical documents share a key across versions")
	}
}

// TestCatalogAndFingerprint: the catalog lists both versions with wire
// names, latest flags, and schemas; the fingerprint covers the registered
// surface.
func TestCatalogAndFingerprint(t *testing.T) {
	entries := Catalog()
	var v1, v2 *CatalogEntry
	for i := range entries {
		if entries[i].Kind == "test_versioned" {
			switch entries[i].Version {
			case 1:
				v1 = &entries[i]
			case 2:
				v2 = &entries[i]
			}
		}
	}
	if v1 == nil || v2 == nil {
		t.Fatal("test_versioned versions missing from catalog")
	}
	if v1.Wire != "test_versioned" || v1.Latest {
		t.Fatalf("v1 entry = %+v", v1)
	}
	if v2.Wire != "test_versioned@v2" || !v2.Latest {
		t.Fatalf("v2 entry = %+v", v2)
	}
	if v2.Schema == nil || v2.Schema.Properties["count"] == nil {
		t.Fatalf("v2 schema missing: %+v", v2.Schema)
	}

	fp := CatalogFingerprint()
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q", fp)
	}
	if fp != CatalogFingerprint() {
		t.Fatal("fingerprint not stable")
	}

	// Catalog ordering: by kind, then version.
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.Kind > b.Kind || (a.Kind == b.Kind && a.Version >= b.Version) {
			t.Fatalf("catalog unsorted at %d: %s@v%d then %s@v%d", i, a.Kind, a.Version, b.Kind, b.Version)
		}
	}
}

// TestPinnedKindResolvesExactVersion: the persistence path resolves a
// record at its exact version through PinnedKind, mapping the
// pre-versioning record form (version 0) to v1.
func TestPinnedKindResolvesExactVersion(t *testing.T) {
	for _, version := range []int{0, 1} {
		rs, err := ResolveEnvelope(JobEnvelope{Kind: PinnedKind("test_versioned", version), Spec: json.RawMessage(`{"n":5}`)})
		if err != nil {
			t.Fatalf("version %d: %v", version, err)
		}
		if v1, ok := rs.Spec.(verSpecV1); !ok || v1.N != 5 {
			t.Fatalf("version %d decoded %#v", version, rs.Spec)
		}
	}
	rs, err := ResolveEnvelope(JobEnvelope{Kind: PinnedKind("test_versioned", 2), Spec: json.RawMessage(`{"count":5}`)})
	if err != nil {
		t.Fatal(err)
	}
	if v2, ok := rs.Spec.(verSpecV2); !ok || v2.Count != 5 {
		t.Fatalf("decoded %#v", rs.Spec)
	}
}

func TestRegisterSpecRejectsVersionedKindString(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("kind with '@' registered without panic")
		}
	}()
	RegisterSpec("bad@v1", 1, DecodeJSON[verSpecV1](), nil)
}
