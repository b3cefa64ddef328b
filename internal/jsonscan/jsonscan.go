// Package jsonscan walks one well-formed JSON value by its bytes, without
// decoding it, for the engine's schema walker, the client SDK's range-body
// decoder and the store's log replay. Its input has passed json.Valid, or
// is a value a json.Decoder delimited, so it checks no syntax.
package jsonscan

import (
	"encoding/json"
	"unicode"
	"unicode/utf8"
)

// Scanner is a position in a well-formed JSON document.
type Scanner struct {
	Doc []byte
	Pos int
}

// Member reads one object member's key past a leading comma, leaves Pos at
// its value, and returns the key as encoding/json decodes it. A key of
// ASCII without escapes is its own decoding and is returned uncopied, so
// looking it up allocates nothing.
func (s *Scanner) Member() []byte {
	if s.Doc[s.Pos] == ',' {
		s.Pos++
		s.SkipSpace()
	}
	start := s.Pos
	coded := s.SkipString()
	key := s.Doc[start+1 : s.Pos-1]
	if coded {
		var k string
		_ = json.Unmarshal(s.Doc[start:s.Pos], &k) // cannot fail: a well-formed JSON string
		key = []byte(k)
	}
	s.SkipSpace()
	s.Pos++ // ':'
	s.SkipSpace()
	return key
}

// Next steps into the array at Pos, or past the ',' after one of its
// elements, and reports whether an element follows; Pos is then at it. At
// the array's closing bracket it moves Pos past it and reports false.
func (s *Scanner) Next() bool {
	s.SkipSpace()
	if s.Doc[s.Pos] != ']' {
		s.Pos++ // '[' or ','
		s.SkipSpace()
		if s.Doc[s.Pos] != ']' {
			return true
		}
	}
	s.Pos++
	return false
}

// Elements returns the elements of the array at Pos, each a sub-slice of
// Doc capped at its end, and moves Pos past the array; n sizes the slice.
func (s *Scanner) Elements(n int) []json.RawMessage {
	docs := make([]json.RawMessage, 0, max(n, 0))
	for s.Next() {
		start := s.Pos
		s.SkipValue()
		docs = append(docs, s.Doc[start:s.Pos:s.Pos])
	}
	return docs
}

// FoldKey appends key folded the way encoding/json folds object keys to
// match them against struct field names case-insensitively: "ſ" folds to
// "S", but the Turkish "ı" stays itself.
func FoldKey(dst, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		// SimpleFold walks r's orbit upward and wraps to its smallest rune.
		r, n := utf8.DecodeRune(key[i:])
		f := unicode.SimpleFold(r)
		for f > r {
			r, f = f, unicode.SimpleFold(f)
		}
		dst = utf8.AppendRune(dst, f)
		i += n
	}
	return dst
}

// SkipValue moves Pos past the value at Pos.
func (s *Scanner) SkipValue() {
	switch s.Doc[s.Pos] {
	case '"':
		s.SkipString()
	case '{', '[':
		for nest := 0; ; {
			switch s.Doc[s.Pos] {
			case '"':
				s.SkipString()
				continue
			case '{', '[':
				nest++
			case '}', ']':
				nest--
			}
			s.Pos++
			if nest == 0 {
				return
			}
		}
	case 't', 'n':
		s.Pos += len("true")
	case 'f':
		s.Pos += len("false")
	default:
		for s.Pos < len(s.Doc) && isNumberByte(s.Doc[s.Pos]) {
			s.Pos++
		}
	}
}

// SkipString moves Pos past the string whose opening quote is at Pos. It
// reports whether the string's bytes may differ from its decoding: they
// hold an escape, or a byte outside ASCII (encoding/json replaces invalid
// UTF-8).
func (s *Scanner) SkipString() (coded bool) {
	for s.Pos++; s.Doc[s.Pos] != '"'; s.Pos++ {
		switch c := s.Doc[s.Pos]; {
		case c == '\\':
			s.Pos++
			coded = true
		case c >= utf8.RuneSelf:
			coded = true
		}
	}
	s.Pos++
	return coded
}

// SkipSpace moves Pos past insignificant whitespace.
func (s *Scanner) SkipSpace() {
	for s.Pos < len(s.Doc) {
		switch s.Doc[s.Pos] {
		case ' ', '\t', '\n', '\r':
			s.Pos++
		default:
			return
		}
	}
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}
