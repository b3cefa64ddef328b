package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gameofcoins/internal/rng"
)

// The two hand-rolled parsers on the submission path — the JSON-Schema
// subset validator and the kind@vN wire parser feeding envelope resolution —
// see arbitrary client bytes before anything else does. These fuzz targets
// hold them to "reject, never panic": a malformed document must come back as
// an error (for the schema, always a *SchemaError), and verdicts must be
// deterministic, because validation runs on every replica and a
// replica-dependent verdict would split the cache. CI runs each briefly
// (-fuzztime 30s, non-gating); the corpora grow under testdata/fuzz.

// FuzzSchemaValidate feeds arbitrary documents to every built-in spec
// schema.
func FuzzSchemaValidate(f *testing.F) {
	f.Add([]byte(`{"runs": 3, "gen": {"miners": 2, "coins": 2}}`))
	f.Add([]byte(`{"pairs": 1}`))
	f.Add([]byte(`{"runs": "three"}`))
	f.Add([]byte(`{"unknown_field": true}`))
	f.Add([]byte(`{"gen": {"miners": 1e2}}`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add([]byte(`nul`))
	f.Add([]byte(`{"runs": 18446744073709551616}`))
	f.Add([]byte(`{"game": {"miners": [{"power": 1.5}]}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		schemas := []*Schema{
			learnSweepSchema(),
			designSweepSchema(),
			replaySweepSchema(),
			equilibriumSweepSchema(),
		}
		for _, s := range schemas {
			err := s.Validate(raw)
			if err != nil {
				var se *SchemaError
				if !asSchemaError(err, &se) {
					t.Fatalf("Validate returned a non-*SchemaError: %T %v", err, err)
				}
			}
			// Validation is pure: the same document must get the same verdict
			// on every replica, or identical submissions would 422 on one
			// server and run on another.
			again := s.Validate(raw)
			if (err == nil) != (again == nil) {
				t.Fatalf("Validate verdict not deterministic: %v then %v", err, again)
			}
		}
	})
}

func asSchemaError(err error, target **SchemaError) bool {
	se, ok := err.(*SchemaError)
	if ok {
		*target = se
	}
	return ok
}

// FuzzParseKindVersion holds the wire-kind parser to its canonical-spelling
// contract: accepted kinds round-trip through VersionedKind, and no input
// panics.
func FuzzParseKindVersion(f *testing.F) {
	f.Add("learn_sweep")
	f.Add("learn_sweep@v2")
	f.Add("@v1")
	f.Add("k@v01")
	f.Add("k@v+2")
	f.Add("k@")
	f.Add("k@v")
	f.Add("k@v0")
	f.Add("k@v1@v2")
	f.Add("k@v18446744073709551616")
	f.Fuzz(func(t *testing.T, wire string) {
		kind, version, err := ParseKindVersion(wire)
		if err != nil {
			if kind != "" || version != 0 {
				t.Fatalf("ParseKindVersion(%q) errored but returned (%q, %d)", wire, kind, version)
			}
			return
		}
		if strings.Contains(kind, "@") {
			t.Fatalf("ParseKindVersion(%q) accepted a kind containing '@': %q", wire, kind)
		}
		if version < 0 {
			t.Fatalf("ParseKindVersion(%q) returned negative version %d", wire, version)
		}
		// A pinned spelling must round-trip exactly: parse(render(kind, vN))
		// == (kind, vN) for N >= 2 (v1 and "latest" both render bare).
		if version >= 2 {
			k2, v2, err2 := ParseKindVersion(VersionedKind(kind, version))
			if err2 != nil || k2 != kind || v2 != version {
				t.Fatalf("round-trip of (%q, %d) gave (%q, %d, %v)", kind, version, k2, v2, err2)
			}
		}
	})
}

// FuzzResolveEnvelope drives the full envelope-resolution path — kind
// parsing, registry lookup, schema validation, decode — with arbitrary kind
// strings and spec documents. Every outcome must be an error or a valid
// resolved spec; nothing may panic.
func FuzzResolveEnvelope(f *testing.F) {
	f.Add("learn_sweep", []byte(`{"runs": 2, "gen": {"miners": 2, "coins": 2}}`))
	f.Add("learn_sweep@v1", []byte(`{"runs": 1}`))
	f.Add("equilibrium_sweep", []byte(`{"games": 1, "gen": {"miners": 2, "coins": 2}}`))
	f.Add("design_sweep", []byte(`{"pairs": -1}`))
	f.Add("nope", []byte(`{}`))
	f.Add("learn_sweep@v99", []byte(`{}`))
	f.Add("replay_sweep", []byte(`{"params": {"miners": -5}}`))
	f.Add("", []byte(``))
	f.Fuzz(func(t *testing.T, wire string, raw []byte) {
		rs, err := ResolveEnvelope(JobEnvelope{Kind: wire, Seed: 1, Spec: raw})
		if err != nil {
			return
		}
		if rs.Spec == nil {
			t.Fatalf("ResolveEnvelope(%q) returned nil spec without error", wire)
		}
		// A resolved spec must re-encode canonically — that encoding is what
		// cache keys hash, so a marshal failure here would be a job that runs
		// but can never be cached or persisted.
		if _, cerr := CanonicalSpecJSON(rs.Spec); cerr != nil {
			t.Fatalf("resolved %q spec does not re-encode: %v", wire, cerr)
		}
	})
}

// FuzzSchemaMatchesReference holds the one-pass validator to the
// decode-then-walk validator it replaced (the reference below): on arbitrary
// bytes, and on documents generated from every built-in spec and result
// schema and each of their $defs, Validate and ValidateDef must return the
// reference's verdict with the same SchemaError Path and Msg.
func FuzzSchemaMatchesReference(f *testing.F) {
	deep := strings.Repeat(`{"v":1,"kids":[`, 40) + strings.Repeat(`]}`, 40)
	for i, doc := range []string{
		`{"a\u002fb":1}`,
		`{"a/b~c":1}`,
		`{"\u0072uns":"x"}`,
		`{"gen":{"Mïners":1,"é":2}}`,
		`{"runs":"x"}`,
		"{\"r\xffns\":1}",
		`{"runs":-9223372036854775808}`,
		`{"runs":-9223372036854775809}`,
		`{"runs":18446744073709551615}`,
		`{"runs":18446744073709551616}`,
		`{"runs":1e2}`,
		`{"runs":1.0}`,
		`-0`,
		" \t\r\n",
		`{"runs":1} trailing`,
		`{"runs":"x"}{"runs":1}`,
		`12 34`,
		`{"runs":`,
		`{"runs":"x","max_steps":"y","gen":{"Miners":"a","Coins":"b"}}`,
		`{"runs":"x","runs":1}`,
		`{"gen":{"Miners":"a","Miners":8}}`,
		`{"steps":3,"converged":true}`,
		`{"id":3,"mode":"fast","tree":` + deep + `}`,
		`{"id":1,"mode":"slow","num":-1.5,"tags":{"k":1},"loop":null}`,
	} {
		f.Add([]byte(doc), uint64(i))
	}
	targets := schemaTargets()
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		r := rng.New(seed)
		for _, tg := range targets {
			matchReference(t, tg, raw)
			for range 4 {
				matchReference(t, tg, genDocument(r, tg.root, tg.schema()))
			}
		}
	})
}

// schemaTarget is one validation entry point: the root schema (Validate) or
// one of its $defs (ValidateDef).
type schemaTarget struct {
	root *Schema
	def  string
}

func (tg schemaTarget) schema() *Schema {
	if tg.def == "" {
		return tg.root
	}
	return tg.root.Defs[tg.def]
}

// schemaTargets lists the eight built-in spec and result schemas, each
// $def of theirs, and oddSchema.
func schemaTargets() []schemaTarget {
	var out []schemaTarget
	for _, root := range []*Schema{
		learnSweepSchema(), designSweepSchema(), replaySweepSchema(), equilibriumSweepSchema(),
		learnSweepResultSchema(), designSweepResultSchema(), replaySweepResultSchema(), equilibriumSweepResultSchema(),
		oddSchema(),
	} {
		out = append(out, schemaTarget{root: root})
		for _, def := range slices.Sorted(maps.Keys(root.Defs)) {
			out = append(out, schemaTarget{root: root, def: def})
		}
	}
	return out
}

// oddSchema uses what the built-in schemas leave unused — untyped and
// unsupported types, a nil items schema, bad and undefined $refs, a $ref
// cycle and a recursive def — so the walker's handling of them is held to
// the reference too.
func oddSchema() *Schema {
	s := SchemaOpenObject(map[string]*Schema{
		"id":      SchemaInt(""),
		"mode":    SchemaString(""),
		"any":     {},
		"list":    {Type: "array"},
		"nul":     {Type: "null"},
		"weird":   {Type: "decimal"},
		"tree":    SchemaRef("node"),
		"loop":    SchemaRef("loop"),
		"nowhere": SchemaRef("missing"),
		"bad":     {Ref: "#/definitions/node"},
	})
	s.Defs = map[string]*Schema{
		"node": SchemaObject(map[string]*Schema{"v": SchemaInt(""), "kids": SchemaArray(SchemaRef("node"))}),
		"loop": SchemaRef("loop"),
	}
	return s
}

func matchReference(t *testing.T, tg schemaTarget, raw []byte) {
	t.Helper()
	var got, want error
	if tg.def == "" {
		got, want = tg.root.Validate(raw), refValidate(tg.root, raw)
	} else {
		got, want = tg.root.ValidateDef(tg.def, raw), refValidateDef(tg.root, tg.def, raw)
	}
	if got == nil && want == nil {
		return
	}
	g, gok := got.(*SchemaError)
	w, wok := want.(*SchemaError)
	if !gok || !wok || g.Path != w.Path || g.Msg != w.Msg {
		t.Fatalf("%s $def %q on %q: got %v, reference %v", tg.root.Title, tg.def, raw, got, want)
	}
}

// Document generator: mostly shaped by the schema, with what the walker
// must get right mixed in — wrong types, nulls, unknown, repeated, escaped
// and invalid-UTF-8 keys, integer edges, fractions and exponents,
// whitespace, trailing bytes and truncation.

var (
	genNumbers = []string{
		"0", "-0", "1", "42", "-7", "1.0", "1.5", "1e2", "-2E-3", "0.5e+1",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616", "123456789012345678901234567890",
	}
	genStrings = []string{`""`, `"fast"`, `"slow"`, `"random"`, `"ab"`, `"é"`, `"\ud800"`, `"q\"q"`, "\"\xff\""}
	genKeys    = []string{"bogus", "Runs", "a/b~c", "k", "v", "kids", "\xff"}
	genTrails  = []string{" ", " x", "}", "]", ",1", ` {"runs":"x"}`, " 7"}
)

func genDocument(r *rng.Rand, root, s *Schema) []byte {
	var b bytes.Buffer
	genSpace(r, &b)
	genValue(r, root, s, 0, &b)
	genSpace(r, &b)
	doc := b.Bytes()
	switch r.Intn(16) {
	case 0:
		doc = append(doc, genTrails[r.Intn(len(genTrails))]...)
	case 1:
		doc = doc[:r.Intn(len(doc)+1)]
	}
	return doc
}

func genValue(r *rng.Rand, root, s *Schema, depth int, b *bytes.Buffer) {
	if s != nil && s.Ref != "" {
		s = root.Defs[strings.TrimPrefix(s.Ref, "#/$defs/")]
	}
	if s == nil || depth > 6 || r.Intn(10) == 0 {
		genAny(r, depth, b)
		return
	}
	switch s.Type {
	case "object":
		genObject(r, root, s, depth, b)
	case "array":
		b.WriteByte('[')
		for i, n := 0, r.Intn(4); i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			genSpace(r, b)
			genValue(r, root, s.Items, depth+1, b)
		}
		b.WriteByte(']')
	case "integer", "number":
		b.WriteString(genNumbers[r.Intn(len(genNumbers))])
	case "string":
		b.WriteString(genStrings[r.Intn(len(genStrings))])
	case "boolean":
		b.WriteString([]string{"true", "false"}[r.Intn(2)])
	default:
		genAny(r, depth, b)
	}
}

// genObject writes members drawn from s.Properties (repeats allowed) and
// from genKeys, each key sometimes spelled with \u escapes.
func genObject(r *rng.Rand, root, s *Schema, depth int, b *bytes.Buffer) {
	props := slices.Sorted(maps.Keys(s.Properties))
	b.WriteByte('{')
	for i, n := 0, r.Intn(len(props)+3); i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		genSpace(r, b)
		var key string
		var sub *Schema
		if len(props) > 0 && r.Intn(5) > 0 {
			key = props[r.Intn(len(props))]
			sub = s.Properties[key]
		} else {
			key = genKeys[r.Intn(len(genKeys))]
		}
		genKey(r, key, b)
		genSpace(r, b)
		b.WriteByte(':')
		genSpace(r, b)
		genValue(r, root, sub, depth+1, b)
	}
	b.WriteByte('}')
}

func genKey(r *rng.Rand, key string, b *bytes.Buffer) {
	b.WriteByte('"')
	escape := r.Intn(4) == 0
	for i := 0; i < len(key); i++ {
		switch c := key[i]; {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case escape && c < 0x80:
			fmt.Fprintf(b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}

func genAny(r *rng.Rand, depth int, b *bytes.Buffer) {
	n := 7
	if depth > 6 {
		n = 5 // scalars only
	}
	switch r.Intn(n) {
	case 0:
		b.WriteString("null")
	case 1:
		b.WriteString([]string{"true", "false"}[r.Intn(2)])
	case 2, 3:
		b.WriteString(genNumbers[r.Intn(len(genNumbers))])
	case 4:
		b.WriteString(genStrings[r.Intn(len(genStrings))])
	case 5:
		genObject(r, nil, &Schema{}, depth, b)
	case 6:
		genValue(r, nil, &Schema{Type: "array"}, depth, b)
	}
}

func genSpace(r *rng.Rand, b *bytes.Buffer) {
	if r.Intn(4) == 0 {
		b.WriteString([]string{" ", "\n\t", "\r "}[r.Intn(3)])
	}
}

// The reference: Validate and ValidateDef as they were before the one-pass
// walker, changed to decode objects as ordered member lists (refObject), so
// they visit members in document order and see every occurrence of a
// repeated key, and trimmed like the walker of the keywords no schema set
// (required, enum, minimum).

type refMember struct {
	key string
	val any
}

type refObject []refMember

func refValidate(s *Schema, raw json.RawMessage) error {
	if s == nil || len(raw) == 0 {
		return nil
	}
	v, err := refDecode(raw)
	if err != nil {
		return &SchemaError{Msg: "malformed JSON: " + err.Error()}
	}
	return refWalk(s, s, v, "", 0)
}

func refValidateDef(s *Schema, name string, raw json.RawMessage) error {
	if s == nil || len(raw) == 0 {
		return nil
	}
	def, ok := s.Defs[name]
	if !ok {
		return nil
	}
	v, err := refDecode(raw)
	if err != nil {
		return &SchemaError{Msg: "malformed JSON: " + err.Error()}
	}
	return refWalk(def, s, v, "", 0)
}

// refDecode decodes the first value in raw as the old validator did, for
// its verdict and error text on malformed input, then decodes the same
// value again token by token to keep objects' members in order.
func refDecode(raw []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	tok := json.NewDecoder(bytes.NewReader(raw[:dec.InputOffset()]))
	tok.UseNumber()
	return refOrdered(tok)
}

func refOrdered(dec *json.Decoder) (any, error) {
	t, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch t {
	case json.Delim('{'):
		obj := refObject{}
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				return nil, err
			}
			v, err := refOrdered(dec)
			if err != nil {
				return nil, err
			}
			obj = append(obj, refMember{k.(string), v})
		}
		_, err := dec.Token()
		return obj, err
	case json.Delim('['):
		arr := []any{}
		for dec.More() {
			v, err := refOrdered(dec)
			if err != nil {
				return nil, err
			}
			arr = append(arr, v)
		}
		_, err := dec.Token()
		return arr, err
	}
	return t, nil
}

func refWalk(s, root *Schema, v any, path string, depth int) error {
	if s == nil {
		return nil
	}
	if s.Ref != "" {
		if depth >= maxRefDepth {
			return &SchemaError{Path: path, Msg: fmt.Sprintf("$ref chain deeper than %d (cycle?)", maxRefDepth)}
		}
		name, ok := strings.CutPrefix(s.Ref, "#/$defs/")
		if !ok {
			return &SchemaError{Path: path, Msg: fmt.Sprintf("unsupported $ref %q (want \"#/$defs/name\")", s.Ref)}
		}
		def, found := root.Defs[name]
		if !found {
			return &SchemaError{Path: path, Msg: fmt.Sprintf("$ref to undefined $def %q", name)}
		}
		return refWalk(def, root, v, path, depth+1)
	}
	if v == nil {
		return nil
	}
	if err := refCheckType(s, v, path); err != nil {
		return err
	}
	switch val := v.(type) {
	case refObject:
		for _, m := range val {
			sub, known := s.Properties[m.key]
			if !known {
				if s.AdditionalProperties != nil && !*s.AdditionalProperties {
					return &SchemaError{Path: path + "/" + escapePointer(m.key), Msg: "unknown field"}
				}
				continue
			}
			if err := refWalk(sub, root, m.val, path+"/"+escapePointer(m.key), depth); err != nil {
				return err
			}
		}
	case []any:
		for i, elem := range val {
			if err := refWalk(s.Items, root, elem, path+"/"+strconv.Itoa(i), depth); err != nil {
				return err
			}
		}
	}
	return nil
}

func refCheckType(s *Schema, v any, path string) error {
	if s.Type == "" {
		return nil
	}
	ok := false
	switch s.Type {
	case "object":
		_, ok = v.(refObject)
	case "array":
		_, ok = v.([]any)
	case "string":
		_, ok = v.(string)
	case "boolean":
		_, ok = v.(bool)
	case "number":
		_, ok = v.(json.Number)
	case "integer":
		if n, isNum := v.(json.Number); isNum {
			if _, err := strconv.ParseInt(n.String(), 10, 64); err == nil {
				ok = true
			} else if _, err := strconv.ParseUint(n.String(), 10, 64); err == nil {
				ok = true
			}
		}
	case "null":
		ok = v == nil
	default:
		return &SchemaError{Path: path, Msg: fmt.Sprintf("schema has unsupported type %q", s.Type)}
	}
	if !ok {
		return &SchemaError{Path: path, Msg: fmt.Sprintf("want %s, got %s", s.Type, refTypeName(v))}
	}
	return nil
}

func refTypeName(v any) string {
	switch v.(type) {
	case refObject:
		return "object"
	case []any:
		return "array"
	case string:
		return "string"
	case bool:
		return "boolean"
	case json.Number:
		return "number"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}
