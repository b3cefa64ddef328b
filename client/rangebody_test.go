package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/server"
)

// decodeRangeBody is what ResultRange decodes a body with: checkRangeBody
// checking no document.
func decodeRangeBody(body []byte, want int) (rangeBody, error) {
	return checkRangeBody(body, want, nil)
}

// taskError is how StreamResultFrom reported the first document of a range
// that failed a walk of the whole results array (Validate), the reference
// the one-pass check must match: the walk names the element ("/k/…"); the
// SDK names task lo+k and the path inside that document.
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

// refDecodeRange is how ResultRange decoded a ?range= body before the
// one-pass decoder, kept as the reference it must match: a json.Decoder
// into the results field, copying each document.
func refDecodeRange(body []byte) ([]json.RawMessage, error) {
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// refCheckTasks is how StreamResultFrom checked a range's documents before
// the one-walk check: ValidateDef per document, first failure wins.
func refCheckTasks(results *engine.Schema, lo int, docs []json.RawMessage) error {
	for k, doc := range docs {
		if err := results.ValidateDef("task", doc); err != nil {
			return fmt.Errorf("client: task %d result: %w", lo+k, err)
		}
	}
	return nil
}

// FuzzRangeBodyMatchesDecoder: for any body, decodeRangeBody returns the
// documents the pre-change json.Decoder decode returned, each capped, or
// both fail; and against every built-in kind's task $def, the one-walk
// check accepts or rejects exactly as ValidateDef per document did, naming
// the same task, path and message.
func FuzzRangeBodyMatchesDecoder(f *testing.F) {
	for _, seed := range []string{
		`{"id":"job-1","kind":"learn_sweep","lo":5,"hi":7,"total":9,"results":[{"steps":3,"converged":true},{"steps":0,"converged":false}]}`,
		`{"lo":0,"hi":3,"results":[1,2,3]}`,
		` { "results" : [ 1 , {"a" : [2, "x]}"]} , "s\"" ] } `,
		`{"results":[{"steps":1.5}]}`,
		`{"results":[{"steps":2,"converged":"no"}],"lo":0}`,
		`{"results":[{"PeakBCHShare":"high"}]}`,
		`{"results":[1],"results":[{"steps":"x"}]}`,
		`{"results":[{"steps":"x"}],"results":[1]}`,
		`{"results":5,"results":[1]}`,
		`{"RESULTS":[1],"Results":[2]}`,
		`{"reſults":[3]}`,
		`{"results":[4],"hi":2}`,
		`{"results":null}`,
		`{"results":[null]}`,
		`null`,
		`[1]`,
		`"x"`,
		`7`,
		`{"results":{}}`,
		`{"results":[1]} trailing`,
		`{"results":[1]}{`,
		`{"results":[1,]}`,
		``,
		`   `,
		"{\"results\":[\"\xff\"]}",
	} {
		f.Add([]byte(seed))
	}
	var schemas []*engine.Schema
	for _, e := range engine.Catalog() {
		if e.Latest && e.ResultSchema != nil {
			schemas = append(schemas, e.ResultSchema)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := refDecodeRange(body)
		got, gerr := decodeRangeBody(body, 4)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("decodeRangeBody error %v, json.Decoder error %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		if len(got.docs) != len(want) {
			t.Fatalf("decodeRangeBody returned %d documents, json.Decoder %d", len(got.docs), len(want))
		}
		for i := range want {
			if !bytes.Equal(got.docs[i], want[i]) || cap(got.docs[i]) != len(got.docs[i]) {
				t.Fatalf("document %d = %q (cap %d), want %q", i, got.docs[i], cap(got.docs[i]), want[i])
			}
		}
		for _, rs := range schemas {
			tasks := engine.SchemaArray(engine.SchemaRef("task"))
			tasks.Defs = rs.Defs
			var gotErr error
			if err := tasks.Validate(got.arr); err != nil {
				gotErr = taskError(3, err)
			}
			wantErr := refCheckTasks(rs, 3, want)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: one-walk check %v, ValidateDef per document %v", rs.Title, gotErr, wantErr)
			}
		}
	})
}

// FuzzRangeBodyCheckMatchesWalk: for any body, checkRangeBody decodes what
// decodeRangeBody does, and against every built-in kind's task $def the
// check it makes in the same pass, as StreamResultFrom reports it, is what
// a second walk of the results array, Validate, reported: the same task,
// path and message.
func FuzzRangeBodyCheckMatchesWalk(f *testing.F) {
	for _, seed := range []string{
		`{"lo":5,"hi":7,"results":[{"steps":3,"converged":true},{"steps":0,"converged":false}]}`,
		`{"results":[{"steps":1.5}]}`,
		`{"results":[{"steps":2,"converged":"no"},{"steps":"x"}],"lo":0}`,
		`{"results":[1,{"steps":{"a":[1,{"b":2}]}},3]}`,
		`{"results":[{"steps":"x"}],"results":[1]}`,
		`{"results":[{"steps":"x"}],"results":null}`,
		`{"results":[{"PeakBCHShare":"high"}]}`,
		`{"results":[{"steps":[1,2,3],"converged":true}]} trailing`,
		`{"results":[{"steps":"x"},]}`,
		`{"results":[null,{"bogus":1}]}`,
		`{"results":[{"steps":1},{"steps":1},{"steps":"x"},{"steps":"x"},{"steps":1}]}`,
	} {
		f.Add([]byte(seed))
	}
	var schemas []*engine.Schema
	for _, e := range engine.Catalog() {
		if e.Latest && e.ResultSchema != nil {
			tasks := engine.SchemaArray(engine.SchemaRef("task"))
			tasks.Defs = e.ResultSchema.Defs
			schemas = append(schemas, tasks)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := decodeRangeBody(body, 4)
		for _, tasks := range schemas {
			got, gerr := checkRangeBody(body, 4, tasks)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || len(got.docs) != len(want.docs) || !bytes.Equal(got.arr, want.arr) {
				t.Fatalf("checkRangeBody: %d documents, %v; decodeRangeBody: %d, %v", len(got.docs), gerr, len(want.docs), werr)
			}
			if werr != nil {
				continue
			}
			for i := range want.docs {
				if !bytes.Equal(got.docs[i], want.docs[i]) || cap(got.docs[i]) != len(got.docs[i]) {
					t.Fatalf("document %d = %q (cap %d), want %q", i, got.docs[i], cap(got.docs[i]), want.docs[i])
				}
			}
			var gotErr, wantErr error
			if got.taskErr != nil {
				gotErr = fmt.Errorf("client: task %d result: %w", 3+got.taskAt, got.taskErr)
			}
			if err := tasks.Validate(want.arr); err != nil {
				wantErr = taskError(3, err)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("one-pass check %v, a second walk %v", gotErr, wantErr)
			}
		}
	})
}

// TestTaskSchemaFollowsServedEntry: the SDK reuses the task schema it
// decoded while the served catalog entry keeps its bytes, and decodes again
// as soon as they change.
func TestTaskSchemaFollowsServedEntry(t *testing.T) {
	entry := func(taskType string) servedBody {
		return fmt.Appendf(nil, `{"kind":"k","version":1,"wire":"k","latest":true,"result_schema":{"$defs":{"task":{"type":%q}}}}`, taskType)
	}
	c := New("http://gocserve.invalid", WithHTTPClient(&http.Client{Transport: entry("integer")}))
	ctx := context.Background()
	first, err := c.taskSchema(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.taskSchema(ctx, "k")
	if err != nil || again != first {
		t.Fatalf("unchanged entry decoded again: %p, then %p (%v)", first, again, err)
	}
	c.hc = &http.Client{Transport: entry("string")}
	changed, err := c.taskSchema(ctx, "k")
	if err != nil || changed.Defs["task"].Type != "string" {
		t.Fatalf("after the entry changed, task schema = %+v, %v; want a string task def", changed, err)
	}
}

// servedBody is a RoundTripper answering every request with one 200 body.
type servedBody []byte

func (b servedBody) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(b)),
		Request:    req,
	}, nil
}

// learnRangeBody returns persist-stream's range shape: one ?range= body
// holding the 1,200 task documents of an 8×2 learn_sweep job, as the server
// writes it.
func learnRangeBody(tb testing.TB) (spec engine.LearnSweep, body []byte) {
	spec = engine.LearnSweep{Gen: core.GenSpec{Miners: 8, Coins: 2}, Runs: 200}
	base := rng.New(7)
	n := spec.Tasks()
	body = fmt.Appendf(nil, `{"id":"job-1","kind":"learn_sweep","lo":0,"hi":%d,"total":%d,"results":[`, n, n)
	for i := range n {
		out, err := spec.RunTask(context.Background(), i, base.Fork(uint64(i)))
		if err != nil {
			tb.Fatal(err)
		}
		doc, err := spec.EncodeTaskResult(out)
		if err != nil {
			tb.Fatal(err)
		}
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, doc...)
	}
	return spec, append(body, "]}"...)
}

// TestDecodeRangeBodyAllocs: decoding a range body costs one allocation,
// its document slice, however many documents it holds.
func TestDecodeRangeBodyAllocs(t *testing.T) {
	spec, body := learnRangeBody(t)
	n := spec.Tasks()
	if allocs := testing.AllocsPerRun(20, func() { _, _ = decodeRangeBody(body, n) }); allocs > 1 {
		t.Fatalf("decoding a range body of %d documents allocates %v times, want at most 1", n, allocs)
	}
}

// BenchmarkRangeBody reads persist-stream's range shape (learnRangeBody)
// from an in-memory transport. "decode" is ResultRange; "stream" adds the
// task-schema check StreamResultFrom makes on each range, in the same pass.
func BenchmarkRangeBody(b *testing.B) {
	spec, body := learnRangeBody(b)
	n := spec.Tasks()
	c := New("http://gocserve.invalid", WithHTTPClient(&http.Client{Transport: servedBody(body)}))
	h := &Handle{c: c, id: "h-1"}
	ctx := context.Background()
	var tasks *engine.Schema
	for _, e := range engine.Catalog() {
		if e.Kind == spec.Kind() && e.Latest {
			tasks = engine.SchemaArray(engine.SchemaRef("task"))
			tasks.Defs = e.ResultSchema.Defs
		}
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if docs, err := h.ResultRange(ctx, 0, n); err != nil || len(docs) != n {
				b.Fatal(len(docs), err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			rb, err := h.resultRange(ctx, 0, n, tasks)
			if err != nil || len(rb.docs) != n || rb.taskErr != nil {
				b.Fatal(len(rb.docs), err, rb.taskErr)
			}
		}
	})
}

// BenchmarkRangeFetch fetches one ?range= body of persist-stream's shape,
// the 1,200 task documents of an 8×2 learn_sweep job, from an in-process
// server over HTTP. The server states the body's length, so the read
// allocates about one body: B/op stays within 1.5 times body-B.
func BenchmarkRangeFetch(b *testing.B) {
	s := server.New(2)
	ts := httptest.NewServer(s)
	defer s.Close()
	defer ts.Close()
	ctx := context.Background()
	c := New(ts.URL)
	spec := engine.LearnSweep{Gen: core.GenSpec{Miners: 8, Coins: 2}, Runs: 200}
	h, err := c.SubmitLearnSweep(ctx, spec, 7)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.Wait(ctx); err != nil {
		b.Fatal(err)
	}
	path := fmt.Sprintf("/v2/jobs/%s/result?range=0-%d", h.ID(), spec.Tasks())
	var n int
	b.ReportAllocs()
	for b.Loop() {
		body, err := c.get(ctx, path)
		if err != nil {
			b.Fatal(err)
		}
		n = len(body)
	}
	b.ReportMetric(float64(n), "body-B")
}

// TestReadBodySizesByContentLength: readBody reads a body of stated length
// into one buffer of that length, trusts no stated length past
// maxSizedBody, reads an unstated one to EOF, and reports a body shorter
// than stated.
func TestReadBodySizesByContentLength(t *testing.T) {
	body := []byte(`{"results":[1,2,3]}`)
	respond := func(length int64, b []byte) *http.Response {
		return &http.Response{ContentLength: length, Body: io.NopCloser(bytes.NewReader(b))}
	}
	for _, tc := range []struct {
		name     string
		length   int64
		wantCapN bool // the buffer is exactly the stated length
	}{
		{"stated", int64(len(body)), true},
		{"unstated", -1, false},
		{"past the bound", 1 << 40, false},
	} {
		got, err := readBody(respond(tc.length, body))
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: read %q, %v; want %q", tc.name, got, err, body)
		}
		if tc.wantCapN && cap(got) != len(body) {
			t.Errorf("%s: buffer capacity %d for a %d-byte body", tc.name, cap(got), len(body))
		}
		if cap(got) > maxSizedBody {
			t.Errorf("%s: buffer capacity %d past maxSizedBody", tc.name, cap(got))
		}
	}
	if _, err := readBody(respond(int64(len(body))+1, body)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a body shorter than stated: err %v, want io.ErrUnexpectedEOF", err)
	}
}
