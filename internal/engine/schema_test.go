package engine

import (
	"encoding/json"
	"errors"
	"testing"
)

// TestSchemaDecoderAgreement is the contract behind serving schemas from
// GET /v2/specs: for every built-in kind, the hand-written schema accepts a
// document if and only if the registered decoder does. A schema looser than
// its decoder would advertise documents that 400 on submit; one stricter
// would 422 documents the engine runs fine — either way clients validating
// against the catalog would be lied to.
//
// The one exception is a key that differs from a field's name only in case.
// encoding/json matches keys case-insensitively, so the decoder accepts it,
// while the schema, whose property names are exact as JSON Schema's are,
// rejects it as an unknown field. ResolveEnvelope validates before it
// decodes, so a submission holding one gets the schema's 422, which is what
// the catalog advertises.
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
	// The exception: keys that match a field only case-insensitively.
	caseFolded := []struct {
		kind, doc, path string
	}{
		{"learn_sweep", `{"RUNS":5}`, "/RUNS"},
		{"learn_sweep", `{"gen":{"miners":8,"coins":2},"runs":5}`, "/gen/miners"},
		{"equilibrium_sweep", `{"Games":3}`, "/Games"},
	}
	for _, c := range caseFolded {
		t.Run(c.kind+"/"+c.doc, func(t *testing.T) {
			if _, err := decodeWithoutSchema(c.kind, json.RawMessage(c.doc)); err != nil {
				t.Fatalf("decoder rejected %s: %v", c.doc, err)
			}
			e, err := lookupSpec(c.kind)
			if err != nil {
				t.Fatal(err)
			}
			var se *SchemaError
			if err := e.schema.Validate(json.RawMessage(c.doc)); !errors.As(err, &se) || se.Path != c.path || se.Msg != "unknown field" {
				t.Fatalf("schema on %s: %v, want unknown field at %s", c.doc, err, c.path)
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

// TestSchemaErrorNamesItsDocument: a violation names the document it is
// in: a spec document (the 422 bodies' wording), a stored result, or one
// task's document checked against the result schema's task $def.
func TestSchemaErrorNamesItsDocument(t *testing.T) {
	e, err := lookupSpec("learn_sweep")
	if err != nil {
		t.Fatal(err)
	}
	var results *Schema
	for _, ce := range Catalog() {
		if ce.Kind == "learn_sweep" && ce.Version == 1 {
			results = ce.ResultSchema
		}
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{e.schema.Validate(json.RawMessage(`{"runs":"fifty"}`)), "spec document at /runs: want integer, got string"},
		{e.schema.Validate(json.RawMessage(`[1]`)), "spec document: want object, got array"},
		{ValidateResult("learn_sweep", 1, json.RawMessage(`{"total_runs":"nope"}`)),
			"engine: learn_sweep result: result document at /total_runs: want integer, got string"},
		{results.ValidateDef("task", json.RawMessage(`{"steps":"x"}`)), "task document at /steps: want integer, got string"},
		{results.ValidateDef("task", json.RawMessage(`{"steps":`)), "task document: malformed JSON: unexpected EOF"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("error %v, want %q", c.err, c.want)
		}
	}
}

// TestSchemaValidateAllocs is the allocation gate of the two checks on the
// serving path: the server's Validate of an accepted learn_sweep spec, and
// ValidateDef of one task document, which names its document only when it
// returns a violation.
func TestSchemaValidateAllocs(t *testing.T) {
	var entry CatalogEntry
	for _, ce := range Catalog() {
		if ce.Kind == "learn_sweep" && ce.Latest {
			entry = ce
		}
	}
	spec := json.RawMessage(`{"gen":{"Miners":8,"Coins":2},"runs":200}`)
	task := json.RawMessage(`{"steps":3,"converged":true}`)
	for _, c := range []struct {
		name  string
		check func() error
	}{
		{"Validate(spec)", func() error { return entry.Schema.Validate(spec) }},
		{"ValidateDef(task)", func() error { return entry.ResultSchema.ValidateDef("task", task) }},
	} {
		if err := c.check(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = c.check() }); allocs != 0 {
			t.Errorf("%s allocates %v times, want 0", c.name, allocs)
		}
	}
}

// TestSchemaValidateEdges: nil schema and empty/null documents are valid;
// pointer tokens escape RFC-6901 special characters.
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

	// Large uint64 seeds are integers (ParseInt fails, ParseUint succeeds) —
	// the decoder accepts them into uint64 fields.
	if err := SchemaInt("").Validate(json.RawMessage(`18446744073709551615`)); err != nil {
		t.Fatalf("max uint64 rejected: %v", err)
	}
}
