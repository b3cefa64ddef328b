package engine

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gameofcoins/internal/core"
)

// TestWireRoundTripAndCacheKeys is the wire-compatibility gate for the spec
// registry: every registered built-in kind must decode from its JSON
// envelope, re-encode canonically (decode∘encode is a fixed point), and
// produce the golden cache key. A registry or spec change that would split
// or alias existing result-cache entries fails here instead of silently
// recomputing (or worse, cross-serving) cached results in production.
func TestWireRoundTripAndCacheKeys(t *testing.T) {
	cases := []struct {
		kind    string
		spec    string
		seed    uint64
		wantKey string
	}{
		{
			kind:    "learn_sweep",
			spec:    `{"gen":{"Miners":8,"Coins":3},"schedulers":["random","round-robin"],"runs":50,"max_steps":200}`,
			seed:    11,
			wantKey: "968853b029f8b8ddaec9086de5ede9fc",
		},
		{
			kind:    "design_sweep",
			spec:    `{"gen":{"Miners":4,"Coins":2},"pairs":25,"max_tries":100}`,
			seed:    3,
			wantKey: "15f79124380c67ca7c13f4d1130ca90b",
		},
		{
			kind:    "replay_sweep",
			spec:    `{"params":{"Miners":30,"Epochs":144,"SpikeHour":48},"runs":10}`,
			seed:    5,
			wantKey: "12237e448a82eddd3206342f2198de29",
		},
		{
			kind:    "equilibrium_sweep",
			spec:    `{"gen":{"Miners":5,"Coins":2},"games":500}`,
			seed:    7,
			wantKey: "2e83522aca7c95c9ff77e309704d236f",
		},
	}

	covered := map[string]bool{}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			covered[c.kind] = true
			rs, err := ResolveEnvelope(JobEnvelope{Kind: c.kind, Seed: c.seed, Spec: json.RawMessage(c.spec)})
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			enc1, err := CanonicalSpecJSON(rs.Spec)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			// decode∘encode must be a fixed point, or cache keys would
			// depend on how many hops a spec took through the wire.
			rs2, err := ResolveEnvelope(JobEnvelope{Kind: c.kind, Seed: c.seed, Spec: enc1})
			if err != nil {
				t.Fatalf("re-decode canonical form: %v", err)
			}
			enc2, err := CanonicalSpecJSON(rs2.Spec)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("canonical encoding unstable:\n%s\n%s", enc1, enc2)
			}
			// The key is derived exactly as the server derives it.
			key := CacheKeyJSON(rs.WireKind(), enc1, c.seed)
			if key != c.wantKey {
				t.Errorf("cache key drifted: got %s, want %s\n"+
					"(an intentional wire change must update the golden — and invalidates deployed result caches)", key, c.wantKey)
			}
			// The wire form and the canonical form must agree on the key:
			// a client-marshaled spec and its decoded twin share cache lines.
			if key2 := CacheKeyJSON(rs2.WireKind(), enc2, c.seed); key2 != key {
				t.Errorf("round-tripped spec changed key: %s vs %s", key2, key)
			}
		})
	}

	// Every registered kind needs a row above (test-local kinds, prefixed
	// test_/toy, are exempt) so a newly registered spec cannot ship without
	// wire-stability coverage.
	for _, kind := range SpecKinds() {
		if strings.HasPrefix(kind, "test_") || strings.HasPrefix(kind, "toy") {
			continue
		}
		if !covered[kind] {
			t.Errorf("registered kind %q has no wire round-trip case", kind)
		}
	}
}

func TestDecodeSpecUnknownKind(t *testing.T) {
	if _, err := ResolveEnvelope(JobEnvelope{Kind: "bogus_sweep"}); err == nil || !strings.Contains(err.Error(), "unknown spec kind") {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	_, err := ResolveEnvelope(JobEnvelope{Kind: "equilibrium_sweep", Spec: json.RawMessage(`{"gen":{"Miners":5,"Coins":2},"gmaes":500}`)})
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("misspelled field must be rejected, got err = %v", err)
	}
}

func TestRegisterSpecDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterSpec("learn_sweep", 1, DecodeJSON[LearnSweep](), nil)
}

func TestJobEnvelopeDecode(t *testing.T) {
	var env JobEnvelope
	if err := json.Unmarshal([]byte(`{"kind":"equilibrium_sweep","seed":7,"spec":{"gen":{"Miners":5,"Coins":2},"games":9}}`), &env); err != nil {
		t.Fatal(err)
	}
	rs, err := ResolveEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	es, ok := rs.Spec.(EquilibriumSweep)
	if !ok || es.Games != 9 || es.Gen.Miners != 5 {
		t.Fatalf("decoded %#v", rs.Spec)
	}
}

// TestResolveSpecGameRef: a LearnSweep naming a game by ID resolves to the
// exact spec a caller would build with the game inline — same canonical
// encoding, same cache key — so by-reference and by-value submissions share
// one cache line.
func TestResolveSpecGameRef(t *testing.T) {
	g := core.MustNewGame(
		[]core.Miner{{Name: "a", Power: 3}, {Name: "b", Power: 2}},
		[]core.Coin{{Name: "btc"}, {Name: "bch"}},
		[]float64{5, 4},
	)
	resolver := func(id string) (*core.Game, error) {
		if id != "g-1" {
			t.Fatalf("resolver asked for %q", id)
		}
		return g, nil
	}

	byRef, err := ResolveSpec(LearnSweep{GameID: "g-1", Runs: 4, Gen: core.GenSpec{Miners: 9, Coins: 9}}, resolver)
	if err != nil {
		t.Fatal(err)
	}
	byValue := LearnSweep{Game: g, Runs: 4}
	key := func(spec Spec) string {
		t.Helper()
		canonical, err := CanonicalSpecJSON(spec)
		if err != nil {
			t.Fatal(err)
		}
		return CacheKeyJSON(spec.Kind(), canonical, 2)
	}
	if k1, k2 := key(byRef), key(byValue); k1 != k2 {
		t.Fatalf("by-reference and by-value cache keys differ: %s vs %s", k1, k2)
	}

	// Specs without references pass through untouched.
	spec, err := ResolveSpec(EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 3}, resolver)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := spec.(EquilibriumSweep); !ok {
		t.Fatalf("pass-through changed the spec: %#v", spec)
	}

	// An unresolved reference must never reach the engine silently.
	if err := (LearnSweep{GameID: "g-1", Runs: 4}).Validate(); err == nil {
		t.Fatal("unresolved game reference validated")
	}
}
