package jsonscan

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// validSeeds covers each rule of the grammar from both sides.
var validSeeds = []string{
	``, ` `, `1`, ` 1 `, "\t\r\n1\n", `1 2`, `01`, `-`, `-0`, `-01`, `0.`, `0.5`, `.5`, `1e`, `1e+`, `1E-7`, `1e07`,
	`1.5e3`, `+1`, `2.`, `-a`, `1x`, `Infinity`, `NaN`, `0x1F`,
	`true`, `tru`, `truex`, `false`, `fals`, `null`, `nul`, `nulll`, `True`, `NULL`,
	`""`, `"`, `"abc`, `"a"b"`, `"\"\\\/\b\f\n\r\t"`, `"é𐏿"`, `"\u12"`, `"\u12G4"`, `"\x"`, `"\'"`, `"\`,
	"\"\x00\"", "\"\x1f\"", "\"\x7f\"", "\"\xff\xfe\"", "\"é\"", "\"\t\"", "\"\n\"", "\xef\xbb\xbf1",
	`[]`, `[ ]`, `[`, `]`, `[1`, `[1,]`, `[,1]`, `[1 2]`, `[1[2]]`, `[1,[2,{}]]`, `[[]`, `[]]`, `[}`,
	`{}`, `{ }`, `{`, `}`, `{"a":1}`, `{"a" : 1 , "b":[true]}`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`, `{"a" 1}`,
	`{"a":1 "b":2}`, `{1:2}`, `{a:1}`, `{"a":1]`, `[1}`, `{"a":{"b":{}}}`, `{"a":[}`, `{"":""}`, `{"a":1}}`,
	"[1,\v2]", "1\f", " 1",
}

// FuzzScannerMatchesValid: the scanner accepts a byte string if and only
// if json.Valid does. (TestNestingLimit covers the depth limit, whose
// documents are too big to mutate quickly.)
func FuzzScannerMatchesValid(f *testing.F) {
	for _, seed := range validSeeds {
		f.Add([]byte(seed))
	}
	f.Add([]byte(strings.Repeat(`{"a":[`, 40) + `1` + strings.Repeat(`]}`, 40)))
	f.Fuzz(func(t *testing.T, doc []byte) {
		if got, want := Valid(doc), json.Valid(doc); got != want {
			t.Fatalf("Valid(%q) = %v, json.Valid %v", doc, got, want)
		}
	})
}

// TestNestingLimit: like json.Valid, the scanner accepts 10,000 nested
// arrays or objects and rejects 10,001, whether SkipValue or a walk through
// Member and Next opens them.
func TestNestingLimit(t *testing.T) {
	nest := func(n int, open, inner, close string) []byte {
		return []byte(strings.Repeat(open, n) + inner + strings.Repeat(close, n))
	}
	for _, c := range []struct{ open, inner, close string }{{"[", "", "]"}, {`{"k":`, "1", "}"}, {`[{"k":`, "[]", "}]"}} {
		for _, n := range []int{maxDepth / len(c.close), maxDepth/len(c.close) + 1} {
			doc := nest(n, c.open, c.inner, c.close)
			if got, want := Valid(doc), json.Valid(doc); got != want {
				t.Errorf("%d levels of %s: Valid %v, json.Valid %v", n, c.open, got, want)
			}
		}
	}
	// A walk that opens the outer array itself leaves the limit where it is.
	for _, n := range []int{maxDepth, maxDepth + 1} {
		s := Scanner{Doc: nest(n, "[", "", "]")}
		if s.Next(0) {
			s.SkipValue()
			for i := 1; s.Next(i); i++ {
				s.SkipValue()
			}
		}
		if got := s.Done(); got != (n <= maxDepth) {
			t.Errorf("walk of %d nested arrays: Done %v", n, got)
		}
	}
}

// TestSyntaxErrorIsSticky: after a syntax error the walk stops at the end
// of the document, whatever the caller calls next.
func TestSyntaxErrorIsSticky(t *testing.T) {
	s := Scanner{Doc: []byte(`{"a":[1,}2],"b":3}`)}
	key, ok := s.Member(0)
	if !ok || string(key) != "a" {
		t.Fatalf("first member %q, %v", key, ok)
	}
	for i := 0; s.Next(i); i++ {
		s.SkipValue()
	}
	if !s.Failed() || s.Pos != len(s.Doc) {
		t.Fatalf("after the bad element: Failed %v at %d of %d", s.Failed(), s.Pos, len(s.Doc))
	}
	if key, ok := s.Member(1); ok || key != nil || s.Peek() != 0 || s.Next(1) || s.Done() {
		t.Fatal("the walk went on past a syntax error")
	}
	s.SkipValue()
	s.SkipString()
	s.SkipSpace()
	if !s.Failed() || s.Pos != len(s.Doc) {
		t.Fatal("the error was forgotten")
	}
}

// BenchmarkValid checks a ?range= body of 1,200 learn_sweep-shaped task
// documents, the shape all three walks mostly read, against json.Valid.
func BenchmarkValid(b *testing.B) {
	body := []byte(`{"id":"job-1","kind":"learn_sweep","lo":0,"hi":1200,"total":1200,"results":[`)
	for i := range 1200 {
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"steps":%d,"converged":%v}`, i*7919%97, i%5 != 0)
	}
	body = append(body, "]}"...)
	for _, c := range []struct {
		name  string
		valid func([]byte) bool
	}{{"jsonscan", Valid}, {"json.Valid", json.Valid}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				if !c.valid(body) {
					b.Fatal("body rejected")
				}
			}
		})
	}
}
