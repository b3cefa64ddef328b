// Package jsonscan walks JSON by its bytes, without decoding it, for the
// engine's schema walker, the client SDK's range-body decoder and the
// store's log replay. The walk checks RFC 8259's grammar as it goes and
// accepts exactly what json.Valid accepts, so a caller validates a document
// in the one pass that reads it: a Scanner that met a syntax error reports
// it through Failed, and callers hand such input to encoding/json for its
// error text.
package jsonscan

import (
	"encoding/json"
	"unicode"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: json.Valid accepts 10,000
// nested arrays and objects and rejects 10,001.
const maxDepth = 10000

// Scanner is a position in a JSON document. The zero Scanner over Doc is at
// its first byte.
//
// A syntax error is sticky: it moves Pos to the end of Doc, where every
// method stops, so a caller walks on as if nothing happened and checks
// Failed (or Done) once. What a walk returned before that check describes a
// document that may not be JSON, and only a caller that then sees no error
// may use it.
type Scanner struct {
	Doc   []byte
	Pos   int
	depth int // arrays and objects open at Pos
	bad   bool
}

// Valid reports whether doc is one JSON value with only whitespace around
// it: json.Valid's verdict.
func Valid(doc []byte) bool {
	s := Scanner{Doc: doc}
	s.SkipSpace()
	s.SkipValue()
	return s.Done()
}

// Failed reports whether the walk has met a syntax error.
func (s *Scanner) Failed() bool { return s.bad }

// Done moves Pos past trailing whitespace and reports whether the walk met
// no syntax error and reached the end of Doc: after one SkipValue (or a walk
// of one value), whether Doc is exactly that value.
func (s *Scanner) Done() bool {
	s.SkipSpace()
	return !s.bad && s.Pos == len(s.Doc)
}

// Peek returns the byte at Pos, or 0 past the end of Doc.
func (s *Scanner) Peek() byte {
	if s.Pos < len(s.Doc) {
		return s.Doc[s.Pos]
	}
	return 0
}

func (s *Scanner) fail() {
	s.bad = true
	s.Pos = len(s.Doc)
}

// enter moves Pos into the array or object at Pos and past the whitespace
// after its opening bracket, and reports whether that byte closes it: an
// empty container, which it leaves Pos past.
func (s *Scanner) enter(opener, closer byte) (empty bool) {
	if s.Peek() != opener || s.depth == maxDepth {
		s.fail()
		return true
	}
	s.depth++
	s.Pos = skipSpace(s.Doc, s.Pos+1)
	if s.Peek() == closer {
		s.Pos++
		s.depth--
		return true
	}
	return false
}

// step moves Pos past the whitespace after a member or element, then past
// the ',' and whitespace that lead to the next one, and reports whether one
// follows. At closer it moves Pos past it and reports false.
func (s *Scanner) step(closer byte) bool {
	s.SkipSpace()
	switch s.Peek() {
	case ',':
		s.Pos = skipSpace(s.Doc, s.Pos+1)
		return true
	case closer:
		s.Pos++
		s.depth--
		return false
	}
	s.fail()
	return false
}

// Member steps to member i of the object at Pos — into the object when i
// is 0, else past the ',' after member i-1's value — reads its key and
// colon, leaves Pos at its value, and returns the key as encoding/json
// decodes it. A key of ASCII without escapes is its own decoding and is
// returned uncopied, so looking it up allocates nothing. At the object's
// closing brace, or on a syntax error, it reports false; at the brace it
// moves Pos past it.
func (s *Scanner) Member(i int) (key []byte, ok bool) {
	if i == 0 {
		if s.enter('{', '}') {
			return nil, false
		}
	} else if !s.step('}') {
		return nil, false
	}
	start := s.Pos
	coded := s.SkipString()
	end := s.Pos
	if s.bad {
		return nil, false
	}
	if s.Pos = skipColon(s.Doc, end); s.Pos < 0 {
		s.fail()
		return nil, false
	}
	key = s.Doc[start+1 : end-1]
	if coded {
		var k string
		_ = json.Unmarshal(s.Doc[start:end], &k) // cannot fail: a well-formed JSON string
		key = []byte(k)
	}
	return key, true
}

// Next steps to element i of the array at Pos — into the array when i is
// 0, else past the ',' after element i-1 — and reports whether the element
// is there; Pos is then at it. At the array's closing bracket, or on a
// syntax error, it reports false; at the bracket it moves Pos past it.
func (s *Scanner) Next(i int) bool {
	if i == 0 {
		return !s.enter('[', ']')
	}
	return s.step(']')
}

// Elements returns the elements of the array at Pos, each a sub-slice of
// Doc capped at its end, and moves Pos past the array; n sizes the slice.
func (s *Scanner) Elements(n int) []json.RawMessage {
	docs := make([]json.RawMessage, 0, max(n, 0))
	for i := 0; s.Next(i); i++ {
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

// SkipValue moves Pos past the value at Pos. It does not recurse: one bit
// per open array or object says whether it is an object, the first 64 in a
// word on the stack and deeper ones, which only a hostile document has, in
// words on the heap. Its position stays in a local until it returns, which
// spares the loop all three walks spend most of their time in a store per
// byte.
func (s *Scanner) SkipValue() {
	doc, i, depth := s.Doc, s.Pos, s.depth
	var word [1]uint64
	objects := word[:]
	open := 0 // containers this call has entered and not left
	for {
		// i is at a value, or -1 past a bad key.
		if i < 0 || i == len(doc) {
			s.fail()
			return
		}
		switch c := doc[i]; c {
		case '{', '[':
			if depth == maxDepth {
				s.fail()
				return
			}
			if i = skipSpace(doc, i+1); i < len(doc) && doc[i] == c+2 { // '{'+2 is '}', '['+2 is ']'
				i++
				break
			}
			depth++
			if open/64 == len(objects) {
				objects = append(objects, 0)
			}
			bit := uint64(1) << (open % 64)
			objects[open/64] &^= bit
			if c == '{' {
				objects[open/64] |= bit
				i = skipKey(doc, i)
			}
			open++
			continue // to the first member's value or the first element
		case '"':
			i, _ = skipString(doc, i)
		case 't':
			i = skipLiteral(doc, i, "true")
		case 'f':
			i = skipLiteral(doc, i, "false")
		case 'n':
			i = skipLiteral(doc, i, "null")
		default:
			i = skipNumber(doc, i)
		}
		// A value has ended: leave the containers it ends, then step to the
		// next member's value or element.
		for {
			if i < 0 {
				s.fail()
				return
			}
			if open == 0 {
				s.Pos = i
				return
			}
			object := objects[(open-1)/64]&(1<<((open-1)%64)) != 0
			if i = skipSpace(doc, i); i == len(doc) {
				s.fail()
				return
			}
			if doc[i] == ',' {
				if i = skipSpace(doc, i+1); object {
					i = skipKey(doc, i)
				}
				break
			}
			if object && doc[i] != '}' || !object && doc[i] != ']' {
				s.fail()
				return
			}
			i++
			open--
			depth--
		}
	}
}

// SkipString moves Pos past the string at Pos. It reports whether the
// string's bytes may differ from its decoding: they hold an escape, or a
// byte outside ASCII (encoding/json replaces invalid UTF-8, which the
// grammar allows).
func (s *Scanner) SkipString() (coded bool) {
	end := -1
	if s.Peek() == '"' {
		end, coded = skipString(s.Doc, s.Pos)
	}
	if end < 0 {
		s.fail()
		return false
	}
	s.Pos = end
	return coded
}

// SkipSpace moves Pos past insignificant whitespace.
func (s *Scanner) SkipSpace() { s.Pos = skipSpace(s.Doc, s.Pos) }

// The functions below scan doc from offset i and return the offset past
// what they scanned, or -1 where the grammar does not allow it.

// skipString scans the string whose opening quote is at doc[i] and also
// reports whether its bytes may differ from its decoding.
func skipString(doc []byte, i int) (int, bool) {
	coded := false
	for i++; ; {
		for i < len(doc) && plain[doc[i]] {
			i++
		}
		if i == len(doc) {
			return -1, false
		}
		switch c := doc[i]; {
		case c == '"':
			return i + 1, coded
		case c == '\\':
			coded = true
			if i+1 == len(doc) {
				return -1, false
			}
			switch doc[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+5 >= len(doc) || !isHex(doc[i+2]) || !isHex(doc[i+3]) || !isHex(doc[i+4]) || !isHex(doc[i+5]) {
					return -1, false
				}
				i += 6
			default:
				return -1, false
			}
		case c < 0x20:
			return -1, false
		default: // a byte outside ASCII
			coded = true
			i++
		}
	}
}

// plain marks the bytes a string holds as they are: ASCII from space up,
// but for the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skipKey scans an object member's key, the colon after it and the
// whitespace around both.
func skipKey(doc []byte, i int) int {
	if i == len(doc) || doc[i] != '"' {
		return -1
	}
	if i, _ = skipString(doc, i); i < 0 {
		return -1
	}
	return skipColon(doc, i)
}

// skipColon scans whitespace, a ':' and whitespace.
func skipColon(doc []byte, i int) int {
	if i = skipSpace(doc, i); i == len(doc) || doc[i] != ':' {
		return -1
	}
	return skipSpace(doc, i+1)
}

// skipLiteral scans lit.
func skipLiteral(doc []byte, i int, lit string) int {
	if end := i + len(lit); end <= len(doc) && string(doc[i:end]) == lit {
		return end
	}
	return -1
}

// skipNumber scans a number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func skipNumber(doc []byte, i int) int {
	if i < len(doc) && doc[i] == '-' {
		i++
	}
	switch {
	case i < len(doc) && doc[i] == '0':
		i++
	case i < len(doc) && '1' <= doc[i] && doc[i] <= '9':
		i = skipDigits(doc, i+1)
	default:
		return -1
	}
	if i < len(doc) && doc[i] == '.' {
		if i++; i == len(doc) || !isDigit(doc[i]) {
			return -1
		}
		i = skipDigits(doc, i)
	}
	if i < len(doc) && (doc[i] == 'e' || doc[i] == 'E') {
		if i++; i < len(doc) && (doc[i] == '+' || doc[i] == '-') {
			i++
		}
		if i == len(doc) || !isDigit(doc[i]) {
			return -1
		}
		i = skipDigits(doc, i)
	}
	return i
}

// skipDigits scans a run of decimal digits, which may be empty.
func skipDigits(doc []byte, i int) int {
	for i < len(doc) && isDigit(doc[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpace scans insignificant whitespace, which may be none.
func skipSpace(doc []byte, i int) int {
	for i < len(doc) && (doc[i] == ' ' || doc[i] == '\t' || doc[i] == '\n' || doc[i] == '\r') {
		i++
	}
	return i
}
