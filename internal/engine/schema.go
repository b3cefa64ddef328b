package engine

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"gameofcoins/internal/jsonscan"
)

// Schema is a hand-written JSON Schema (a draft 2020-12 subset) describing
// the wire document one registered spec version accepts. Schemas serve two
// masters: GET /v2/specs renders them so clients can introspect and validate
// before submitting, and the server validates every submission against them
// before the decoder runs, turning shape mismatches into 422s with a precise
// JSON-pointer path instead of whatever error text encoding/json produces.
//
// The subset is deliberately the shape level only — types, known fields,
// array items, $defs references — because that is exactly what the
// registered decoder enforces (DecodeJSON + DisallowUnknownFields), which
// has no required fields and no value constraints. Semantic rules ("runs
// must be positive") stay in the spec's Validate, so a schema accepts
// precisely the documents its decoder accepts; the agreement is enforced by
// tests in schema_test.go.
type Schema struct {
	Title       string `json:"title,omitempty"`
	Description string `json:"description,omitempty"`
	// Type is one of "object", "array", "string", "integer", "number",
	// "boolean", "null"; empty accepts any value.
	Type       string             `json:"type,omitempty"`
	Properties map[string]*Schema `json:"properties,omitempty"`
	// AdditionalProperties false rejects unknown object keys — the schema
	// form of DecodeJSON's DisallowUnknownFields. nil (omitted) allows them.
	AdditionalProperties *bool   `json:"additionalProperties,omitempty"`
	Items                *Schema `json:"items,omitempty"`
	// Defs holds shared sub-schemas referenced by Ref ("#/$defs/name").
	// Only the root schema's Defs are consulted during validation; nested
	// Defs render but do not resolve, matching how the built-in result
	// schemas share their gen/game/task sub-documents from the root.
	Defs map[string]*Schema `json:"$defs,omitempty"`
	// Ref, when set, delegates validation to the named root $def; all
	// sibling keywords on the referencing schema are ignored (the pre-2019
	// $ref semantics, which is all the hand-written schemas need).
	Ref string `json:"$ref,omitempty"`
}

// SchemaError reports where a document diverges from its schema. Doc names
// the document ("" is a spec document). Path is a JSON pointer (RFC 6901)
// into it — "" is the root, "/gen/Miners" a nested field — which the server
// forwards verbatim in 422 responses so clients can point at the offending
// field.
type SchemaError struct {
	Doc  string
	Path string
	Msg  string
}

// Error implements error.
func (e *SchemaError) Error() string {
	doc := cmp.Or(e.Doc, "spec document")
	if e.Path == "" {
		return doc + ": " + e.Msg
	}
	return fmt.Sprintf("%s at %s: %s", doc, e.Path, e.Msg)
}

// Validate checks raw against the schema. An empty document is always valid
// (it decodes to the spec's zero value; semantic validation rejects it later
// if the kind has required parameters). The returned error is always a
// *SchemaError.
func (s *Schema) Validate(raw json.RawMessage) error {
	if s == nil || len(raw) == 0 {
		return nil
	}
	if err := s.check(s, raw); err != nil {
		return err
	}
	return nil
}

// ValidateDef checks raw against the named root $def — one per-task result
// document against the result schema's "task" def, say, without
// re-deriving the aggregate shape; its errors name the document after the
// def ("task document"). A nil schema or a missing def accepts everything:
// a registration that carries no per-task shape simply opts out of
// streaming validation.
func (s *Schema) ValidateDef(name string, raw json.RawMessage) error {
	if s == nil || len(raw) == 0 {
		return nil
	}
	def, ok := s.Defs[name]
	if !ok {
		return nil
	}
	if err := def.check(s, raw); err != nil {
		err.Doc = name + " document"
		return err
	}
	return nil
}

// check validates the first JSON value in raw against s, resolving $refs
// through root's Defs, in one walk that also checks raw's syntax. A
// document the walk does not pass cleanly — one with a syntax error, a
// violation, or bytes after its value — is checked again from the start, so
// its verdict does not depend on where the walk stopped: a document that is
// not one well-formed value goes through a json.Decoder, and either fails
// with the decoder's error text or is a well-formed first value followed by
// trailing bytes, which are ignored, as DecodeJSON ignores them; then the
// first violation in document order wins.
// A violation leaves Doc empty for the caller to name the document, so a
// document that passes builds no name.
func (s *Schema) check(root *Schema, raw []byte) *SchemaError {
	if err, ok := s.walk(root, raw); err == nil && ok {
		return nil
	}
	if !json.Valid(raw) {
		var first json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&first); err != nil {
			return &SchemaError{Msg: "malformed JSON: " + err.Error()}
		}
		raw = first
	}
	err, _ := s.walk(root, raw)
	return err
}

// walk validates the JSON value raw starts with against s, resolving $refs
// through root's Defs, and reports whether raw is that one well-formed
// value and nothing more; only then does err describe raw.
func (s *Schema) walk(root *Schema, raw []byte) (err *SchemaError, clean bool) {
	w := walker{root: root, Scanner: jsonscan.Scanner{Doc: raw}}
	w.SkipSpace()
	err = w.value(s, 0)
	return err, w.Done()
}

// maxRefDepth bounds $ref chains so a cyclic hand-written schema fails a
// validation loudly instead of hanging it.
const maxRefDepth = 32

// walker checks one JSON value against a schema in a single pass over its
// bytes, without decoding it, as its scanner checks the value's syntax: it
// types each value by its first byte and skips what the schema leaves
// unconstrained. A syntax error stops it with the scanner failed, and
// what it returns then says nothing about the document.
type walker struct {
	root *Schema
	jsonscan.Scanner
}

// value checks the value at w.Pos against s and moves w.Pos past it. A
// violation's Path is relative to this value: each enclosing object or array
// prepends its token on the way out, so accepting a document builds no path.
// Members and elements are checked in document order and the first
// violation wins, so every replica reports the same one.
func (w *walker) value(s *Schema, depth int) *SchemaError {
	if s == nil {
		w.SkipValue()
		return nil
	}
	if s.Ref != "" {
		if depth >= maxRefDepth {
			return &SchemaError{Msg: fmt.Sprintf("$ref chain deeper than %d (cycle?)", maxRefDepth)}
		}
		name, ok := strings.CutPrefix(s.Ref, "#/$defs/")
		if !ok {
			return &SchemaError{Msg: fmt.Sprintf("unsupported $ref %q (want \"#/$defs/name\")", s.Ref)}
		}
		def, found := w.root.Defs[name]
		if !found {
			return &SchemaError{Msg: fmt.Sprintf("$ref to undefined $def %q", name)}
		}
		return w.value(def, depth+1)
	}
	start := w.Pos
	c := w.Peek()
	// JSON null is valid against every schema: encoding/json treats null as
	// "leave the field at its zero value" for any Go type, and the schema
	// must not be stricter than the decoder it describes.
	if c == 'n' {
		w.SkipValue()
		return nil
	}
	var lit []byte // a scalar's bytes; containers are walked below instead
	if c != '{' && c != '[' {
		if w.SkipValue(); w.Failed() {
			return nil
		}
		lit = w.Doc[start:w.Pos]
	}
	if err := s.checkType(c, lit); err != nil {
		return err
	}
	switch c {
	case '{':
		return w.object(s, depth)
	case '[':
		return w.array(s, depth)
	}
	return nil
}

// object checks every member of the object at w.Pos in document order,
// each occurrence of a repeated key included — encoding/json decodes each
// occurrence into the field, so each must fit.
func (w *walker) object(s *Schema, depth int) *SchemaError {
	closed := s.AdditionalProperties != nil && !*s.AdditionalProperties
	for i := 0; ; i++ {
		key, ok := w.Member(i)
		if !ok {
			return nil
		}
		sub, known := s.Properties[string(key)]
		var err *SchemaError
		switch {
		case known:
			err = w.value(sub, depth)
		case closed:
			err = &SchemaError{Msg: "unknown field"}
		default:
			w.SkipValue()
		}
		if err != nil {
			err.Path = "/" + escapePointer(string(key)) + err.Path
			return err
		}
	}
}

// array checks the array at w.Pos element by element against s.Items.
func (w *walker) array(s *Schema, depth int) *SchemaError {
	for i := 0; w.Next(i); i++ {
		if err := w.value(s.Items, depth); err != nil {
			err.Path = "/" + strconv.Itoa(i) + err.Path
			return err
		}
	}
	return nil
}

// jsonType names the type of the JSON value that starts with byte c.
func jsonType(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "boolean"
	case 'n':
		return "null"
	}
	return "number"
}

// checkType checks s.Type against the non-null value that starts with byte
// c; lit holds a scalar's bytes.
func (s *Schema) checkType(c byte, lit []byte) *SchemaError {
	got := jsonType(c)
	switch s.Type {
	case "", got:
		return nil
	case "object", "array", "string", "boolean", "number", "null":
	case "integer":
		// Mirror encoding/json exactly: an int field accepts any literal
		// strconv can parse as a (signed or unsigned) integer — "100" yes,
		// "1.5" and "1e2" no.
		if got == "number" && isInteger(lit) {
			return nil
		}
	default:
		return &SchemaError{Msg: fmt.Sprintf("schema has unsupported type %q", s.Type)}
	}
	return &SchemaError{Msg: fmt.Sprintf("want %s, got %s", s.Type, got)}
}

// isInteger reports whether strconv.ParseInt or strconv.ParseUint (base 10,
// 64 bits) accepts the JSON number lit: no fraction or exponent, and a value
// in [-2⁶³, 2⁶⁴-1]. A JSON number has no leading zeros, so comparing digit
// counts, then digits, compares magnitudes.
func isInteger(lit []byte) bool {
	digits, limit := lit, "18446744073709551615"
	if lit[0] == '-' {
		digits, limit = lit[1:], "9223372036854775808"
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
	}
	return len(digits) < len(limit) || len(digits) == len(limit) && string(digits) <= limit
}

// escapePointer escapes one JSON-pointer reference token (RFC 6901: "~"
// becomes "~0", "/" becomes "~1").
func escapePointer(token string) string {
	token = strings.ReplaceAll(token, "~", "~0")
	return strings.ReplaceAll(token, "/", "~1")
}

// Schema literal helpers, so hand-written schemas read as declarations.

// SchemaObject returns an object schema over the given properties that
// rejects unknown fields — the shape DecodeJSON enforces.
func SchemaObject(props map[string]*Schema) *Schema {
	f := false
	return &Schema{Type: "object", Properties: props, AdditionalProperties: &f}
}

// SchemaOpenObject is SchemaObject without the unknown-field rejection, for
// sub-documents decoded by custom unmarshalers that tolerate extra keys.
func SchemaOpenObject(props map[string]*Schema) *Schema {
	return &Schema{Type: "object", Properties: props}
}

// SchemaArray returns an array schema with the given item schema.
func SchemaArray(items *Schema) *Schema { return &Schema{Type: "array", Items: items} }

// SchemaInt returns an integer schema with the given description.
func SchemaInt(desc string) *Schema { return &Schema{Type: "integer", Description: desc} }

// SchemaNumber returns a number schema with the given description.
func SchemaNumber(desc string) *Schema { return &Schema{Type: "number", Description: desc} }

// SchemaString returns a string schema with the given description.
func SchemaString(desc string) *Schema { return &Schema{Type: "string", Description: desc} }

// SchemaBool returns a boolean schema with the given description.
func SchemaBool(desc string) *Schema { return &Schema{Type: "boolean", Description: desc} }

// SchemaRef returns a schema that delegates to the named root $def.
func SchemaRef(name string) *Schema { return &Schema{Ref: "#/$defs/" + name} }
