package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestSchemaDecoderAgreement is the contract behind serving schemas from
// GET /v2/specs: for every built-in kind, the hand-written schema accepts a
// document if and only if the registered decoder does. A schema looser than
// its decoder would advertise documents that 400 on submit; one stricter
// would 422 documents the engine runs fine — either way clients validating
// against the catalog would be lied to.
func TestSchemaDecoderAgreement(t *testing.T) {
	cases := []struct {
		kind string
		doc  string
	}{
		// Valid shapes (semantic validity not required: Validate runs later).
		{"learn_sweep", `{}`},
		{"learn_sweep", `{"gen":{"Miners":8,"Coins":3},"runs":50}`},
		{"learn_sweep", `{"gen":{"Miners":8,"Coins":3},"schedulers":["random"],"runs":50,"max_steps":200}`},
		{"learn_sweep", `{"game_id":"g-abc","runs":1}`},
		{"learn_sweep", `{"runs":-5}`},
		{"learn_sweep", `{"runs":null,"gen":null}`},
		{"learn_sweep", `{"game":{"miners":[{"name":"a","power":3},{"name":"b","power":2}],"coins":[{"name":"btc"},{"name":"bch"}],"rewards":[5,4],"epsilon":0.000001},"runs":2}`},
		{"design_sweep", `{"gen":{"Miners":4,"Coins":2},"pairs":25,"max_tries":100}`},
		{"replay_sweep", `{"params":{"Miners":30,"Epochs":144,"SpikeHour":48},"runs":10}`},
		{"replay_sweep", `{"params":{"ZipfExponent":1.5,"SpikeFactor":2.5,"Activity":0.1,"Hysteresis":0.01,"Seed":3},"runs":1}`},
		{"equilibrium_sweep", `{"gen":{"Miners":5,"Coins":2},"games":500}`},
		// Invalid shapes: wrong types, unknown fields, fractional ints.
		{"learn_sweep", `{"runs":"fifty"}`},
		{"learn_sweep", `{"runs":1.5}`},
		{"learn_sweep", `{"runs":1e2}`},
		{"learn_sweep", `{"rnus":50}`},
		{"learn_sweep", `{"gen":{"Minres":8},"runs":5}`},
		{"learn_sweep", `{"gen":{"Miners":"eight"},"runs":5}`},
		{"learn_sweep", `{"schedulers":"random","runs":5}`},
		{"learn_sweep", `{"schedulers":[1,2],"runs":5}`},
		{"learn_sweep", `{"game":"not-an-object","runs":5}`},
		{"design_sweep", `{"pairs":{}}`},
		{"replay_sweep", `{"params":{"Epochs":1.5},"runs":1}`},
		{"replay_sweep", `{"params":[],"runs":1}`},
		{"equilibrium_sweep", `{"games":true}`},
		// Repeated keys: the decoder decodes every occurrence.
		{"learn_sweep", `{"runs":"x","runs":1}`},
		{"learn_sweep", `{"gen":{"Miners":"a","Miners":8}}`},
	}
	for _, c := range cases {
		t.Run(c.kind+"/"+c.doc, func(t *testing.T) {
			e, err := lookupSpec(c.kind)
			if err != nil {
				t.Fatal(err)
			}
			schema := e.schema
			if schema == nil {
				t.Fatalf("built-in kind %s has no schema", c.kind)
			}
			_, err = decodeWithoutSchema(c.kind, json.RawMessage(c.doc))
			entryDecoded := err == nil
			schemaAccepted := schema.Validate(json.RawMessage(c.doc)) == nil
			if entryDecoded != schemaAccepted {
				t.Fatalf("decoder accepted=%v but schema accepted=%v for %s", entryDecoded, schemaAccepted, c.doc)
			}
		})
	}
}

// decodeWithoutSchema runs just the registered decoder, bypassing the schema
// gate ResolveEnvelope applies — the agreement test needs the two verdicts
// independently.
func decodeWithoutSchema(kind string, raw json.RawMessage) (Spec, error) {
	e, err := lookupSpec(kind)
	if err != nil {
		return nil, err
	}
	return e.decode(raw)
}

// TestSchemaErrorPaths: mismatches report precise JSON-pointer paths, which
// the server forwards in 422 bodies. A document with several violations
// reports the first in document order, the same one on every validation, so
// every replica sends the same 422 body.
func TestSchemaErrorPaths(t *testing.T) {
	cases := []struct {
		kind, doc, path string
	}{
		{"learn_sweep", `{"runs":"fifty"}`, "/runs"},
		{"learn_sweep", `{"gen":{"Miners":"eight"}}`, "/gen/Miners"},
		{"learn_sweep", `{"schedulers":[true]}`, "/schedulers/0"},
		{"learn_sweep", `{"bogus":1}`, "/bogus"},
		{"replay_sweep", `{"params":{"Epochs":1.5}}`, "/params/Epochs"},
		{"learn_sweep", `[1,2]`, ""},
		// Several violations each.
		{"learn_sweep", `{"runs":"x","max_steps":"y","gen":{"Miners":"a","Coins":"b"}}`, "/runs"},
		{"learn_sweep", `{"gen":{"Coins":"b","Miners":"a"},"runs":"x"}`, "/gen/Coins"},
		{"learn_sweep", `{"schedulers":["a",1,true],"bogus":2}`, "/schedulers/1"},
		{"learn_sweep", `{"rnus":1,"runs":"x"}`, "/rnus"},
		{"learn_sweep", `{"runs":1,"runs":"x","gen":{"Minres":1}}`, "/runs"},
		{"replay_sweep", `{"params":{"Seed":"s","Epochs":1.5},"runs":"x"}`, "/params/Seed"},
	}
	for _, c := range cases {
		e, err := lookupSpec(c.kind)
		if err != nil {
			t.Fatal(err)
		}
		first := e.schema.Validate(json.RawMessage(c.doc))
		var se *SchemaError
		if !errors.As(first, &se) {
			t.Fatalf("%s %s: err = %v, want SchemaError", c.kind, c.doc, first)
		}
		if se.Path != c.path {
			t.Errorf("%s %s: path = %q, want %q", c.kind, c.doc, se.Path, c.path)
		}
		for range 99 {
			if err := e.schema.Validate(json.RawMessage(c.doc)); err == nil || err.Error() != first.Error() {
				t.Fatalf("%s %s: %v, then %v", c.kind, c.doc, first, err)
			}
		}
	}
}

// TestSchemaValidateEdges: nil schema and empty/null documents are valid;
// pointer tokens escape RFC-6901 special characters; enum and minimum are
// enforced when present.
func TestSchemaValidateEdges(t *testing.T) {
	var nilSchema *Schema
	if err := nilSchema.Validate(json.RawMessage(`{"anything":1}`)); err != nil {
		t.Fatalf("nil schema rejected a document: %v", err)
	}
	s := SchemaObject(map[string]*Schema{"x": SchemaInt("")})
	if err := s.Validate(nil); err != nil {
		t.Fatalf("empty document rejected: %v", err)
	}
	if err := s.Validate(json.RawMessage(`null`)); err != nil {
		t.Fatalf("null document rejected: %v", err)
	}
	if err := s.Validate(json.RawMessage(`{"x":null}`)); err != nil {
		// encoding/json treats null as "keep the zero value" for every type.
		t.Fatalf("null field rejected: %v", err)
	}
	if err := s.Validate(json.RawMessage(`{"a/b~c":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	} else if se := err.(*SchemaError); se.Path != "/a~1b~0c" {
		t.Fatalf("pointer escaping: %q", se.Path)
	}
	if err := s.Validate(json.RawMessage(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}

	min := 2.0
	bounded := &Schema{Type: "integer", Minimum: &min}
	if err := bounded.Validate(json.RawMessage(`1`)); err == nil {
		t.Fatal("below-minimum accepted")
	}
	if err := bounded.Validate(json.RawMessage(`2`)); err != nil {
		t.Fatalf("at-minimum rejected: %v", err)
	}
	// Required lists of any length are checked, a repeated key counts as
	// present, and a missing required field outranks any member's violation.
	names := make([]string, 70)
	members := make([]string, 70)
	for i := range names {
		names[i] = "f" + strconv.Itoa(i)
		members[i] = `"` + names[i] + `":1`
	}
	req := SchemaOpenObject(map[string]*Schema{"f0": SchemaInt("")}, names...)
	object := func(members ...string) json.RawMessage {
		return json.RawMessage("{" + strings.Join(members, ",") + "}")
	}
	if err := req.Validate(object(append(members, `"f0":2`)...)); err != nil {
		t.Fatalf("all required fields present: %v", err)
	}
	for _, c := range []struct {
		doc     json.RawMessage
		missing string
	}{
		{object(members[:69]...), "f69"},
		{object(append([]string{`"f0":"x"`}, members[1:68]...)...), "f68"},
	} {
		err := req.Validate(c.doc)
		if se, ok := err.(*SchemaError); !ok || se.Path != "" || se.Msg != fmt.Sprintf("missing required field %q", c.missing) {
			t.Fatalf("want missing %s, got %v", c.missing, err)
		}
	}

	enum := &Schema{Type: "string", Enum: []any{"a", "b"}}
	if err := enum.Validate(json.RawMessage(`"c"`)); err == nil {
		t.Fatal("non-enum value accepted")
	}
	if err := enum.Validate(json.RawMessage(`"b"`)); err != nil {
		t.Fatalf("enum value rejected: %v", err)
	}

	// Large uint64 seeds are integers (ParseInt fails, ParseUint succeeds) —
	// the decoder accepts them into uint64 fields.
	if err := SchemaInt("").Validate(json.RawMessage(`18446744073709551615`)); err != nil {
		t.Fatalf("max uint64 rejected: %v", err)
	}
}
