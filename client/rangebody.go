package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/maphash"

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
	// taskErr is why docs[taskAt], the first document that fails the task
	// schema the body was checked against (checkRangeBody), fails it.
	taskErr error
	taskAt  int
}

// checkRangeBody decodes a ?range= body in one pass over its bytes that
// also checks their syntax. It returns exactly the documents that decoding
// the body with a json.Decoder into struct{Results []json.RawMessage}
// returns, and fails where that decode fails: a body the pass does not
// take — one with a syntax error, bytes after its value, or the wrong shape
// — goes through the decoder, which either fails with its own error text or
// delimits a well-formed first value, whose trailing bytes it ignores, and
// the pass runs on that value. Keys match the way encoding/json matches
// struct fields, case-insensitively, and the last occurrence of a key wins.
// want, the number of documents the caller asked for, sizes the document
// slice; the body's length bounds it. With tasks, a schema whose $defs hold
// the task schema, the pass also checks each document as it delimits it,
// as tasks.ValidateDef("task", doc) does. A check depends on nothing but a
// document's bytes, so one byte-identical to a document that passed is not
// walked again: a range's task documents repeat a few shapes.
func checkRangeBody(body []byte, want int, tasks *engine.Schema) (rangeBody, error) {
	if rb, err := scanRangeBody(body, want, tasks); err == nil {
		return rb, nil
	}
	var first json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&first); err != nil {
		return rangeBody{}, err
	}
	return scanRangeBody(first, want, tasks)
}

// errMalformed is scanRangeBody's answer to a body that is not one
// well-formed JSON value; checkRangeBody never returns it.
var errMalformed = errors.New("range body is not one JSON value")

// scanRangeBody is checkRangeBody's pass over body.
func scanRangeBody(body []byte, want int, tasks *engine.Schema) (rangeBody, error) {
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
					rb.docs, rb.arr, rb.taskErr = nil, nil, nil
				case '[':
					rb.docs, rb.taskErr = make([]json.RawMessage, 0, max(min(want, len(body)/2+1), 0)), nil
					var passed [128][]byte // documents that passed, by hash
					seed := maphash.MakeSeed()
					for k := 0; s.Next(k); k++ {
						at := s.Pos
						s.SkipValue()
						doc := body[at:s.Pos:s.Pos]
						rb.docs = append(rb.docs, doc)
						if tasks == nil || rb.taskErr != nil || s.Failed() {
							continue
						}
						slot := &passed[maphash.Bytes(seed, doc)%uint64(len(passed))]
						if bytes.Equal(*slot, doc) {
							continue
						}
						if err := tasks.ValidateDef("task", doc); err != nil {
							rb.taskErr, rb.taskAt = err, k
						} else {
							*slot = doc
						}
					}
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
