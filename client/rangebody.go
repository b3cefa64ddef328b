package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/jsonscan"
)

// rangeBody is a decoded ?range= answer. Its documents and results array
// are sub-slices of the body the SDK read, so decoding copies nothing.
type rangeBody struct {
	// lo and hi are the raw JSON values of the span the server says it
	// served; nil when the body has no such member.
	lo, hi []byte
	// docs are the elements of the results array, each capped at its own
	// end, so an append to one document cannot overwrite the next.
	docs []json.RawMessage
	// arr is the results array the documents came from; nil when the body
	// has none or it is null.
	arr []byte
}

// decodeRangeBody decodes a ?range= body in one pass over its bytes that
// also checks their syntax. It returns exactly the documents that decoding
// the body with a json.Decoder into struct{Results []json.RawMessage}
// returns, and fails where that decode fails: a body the pass does not
// take — one with a syntax error, bytes after its value, or the wrong shape
// — goes through the decoder, which either fails with its own error text or
// delimits a well-formed first value, whose trailing bytes it ignores, and
// the pass runs on that value. Keys match the way encoding/json matches
// struct fields, case-insensitively, and the last occurrence of a key wins.
// want, the number of documents the caller asked for, sizes the document
// slice; the body's length bounds it.
func decodeRangeBody(body []byte, want int) (rangeBody, error) {
	if rb, err := scanRangeBody(body, want); err == nil {
		return rb, nil
	}
	var first json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&first); err != nil {
		return rangeBody{}, err
	}
	return scanRangeBody(first, want)
}

// errMalformed is scanRangeBody's answer to a body that is not one
// well-formed JSON value; decodeRangeBody never returns it.
var errMalformed = errors.New("range body is not one JSON value")

// scanRangeBody is decodeRangeBody's pass over body.
func scanRangeBody(body []byte, want int) (rangeBody, error) {
	s := jsonscan.Scanner{Doc: body}
	s.SkipSpace()
	var rb rangeBody
	switch s.Peek() {
	case 'n':
		s.SkipValue()
	case '{':
		var fold [16]byte
		for i := 0; ; i++ {
			key, ok := s.Member(i)
			if !ok {
				break
			}
			start := s.Pos
			switch string(jsonscan.FoldKey(fold[:0], key)) {
			case "RESULTS":
				switch s.Peek() {
				case 'n':
					s.SkipValue()
					rb.docs, rb.arr = nil, nil
				case '[':
					rb.docs = s.Elements(min(want, len(body)/2+1))
					rb.arr = body[start:s.Pos]
				default:
					return rangeBody{}, errors.New("range body's results is not an array")
				}
			case "LO":
				s.SkipValue()
				rb.lo = body[start:s.Pos]
			case "HI":
				s.SkipValue()
				rb.hi = body[start:s.Pos]
			default:
				s.SkipValue()
			}
		}
	default:
		return rangeBody{}, errors.New("range body is not an object")
	}
	if !s.Done() {
		return rangeBody{}, errMalformed
	}
	return rb, nil
}

// taskError reports the first document of a range that fails its task
// schema. The array walk names the element ("/k/…"); the SDK names task
// lo+k and the path inside that document, as checking each document on its
// own would.
func taskError(lo int, err error) error {
	var se *engine.SchemaError
	if errors.As(err, &se) {
		idx, rest, nested := strings.Cut(strings.TrimPrefix(se.Path, "/"), "/")
		if k, perr := strconv.Atoi(idx); perr == nil {
			doc := &engine.SchemaError{Doc: "task document", Msg: se.Msg}
			if nested {
				doc.Path = "/" + rest
			}
			return fmt.Errorf("client: task %d result: %w", lo+k, doc)
		}
	}
	return fmt.Errorf("client: range from task %d: %w", lo, err)
}
