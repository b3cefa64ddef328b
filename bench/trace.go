package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gameofcoins/internal/store"
)

// Span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the span that caused this one (0 for an op's root). Times are
// nanoseconds since the traced phase began.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Request headers carrying span context from the client transport to the
// server handler wrapper. Only the traced phase sets them.
const (
	opHeader   = "X-Gocperf-Op"
	spanHeader = "X-Gocperf-Span"
)

// tracer keeps the traced phase's spans in memory. All spans are recorded
// from the benchmark's own wrappers around calls into each layer; nothing
// inside the program is instrumented.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	jobs sync.Map // job id → op id, so store spans find their op

	mu    sync.Mutex
	spans []Span           // guarded by mu
	ops   map[int64]*opObs // guarded by mu
}

// opObs is what the transport observes about one op's event stream.
type opObs struct {
	submitted     int64 // submit response received
	firstProgress int64 // first SSE event with done > 0
	events        int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ops: map[int64]*opObs{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// observe runs fn on op's observation record under the tracer's lock.
func (t *tracer) observe(op int64, fn func(*opObs)) {
	t.mu.Lock()
	o := t.ops[op]
	if o == nil {
		o = &opObs{}
		t.ops[op] = o
	}
	fn(o)
	t.mu.Unlock()
}

// observations returns copies of the given ops' stream observations.
func (t *tracer) observations(ids []int64) []opObs {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]opObs, 0, len(ids))
	for _, id := range ids {
		if o := t.ops[id]; o != nil {
			out = append(out, *o)
		}
	}
	return out
}

// spanCtx is the span context an op's SDK calls carry down to the
// transport.
type spanCtx struct{ op, parent int64 }

type spanCtxKey struct{}

func withSpan(ctx context.Context, op, parent int64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{op, parent})
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc
}

// call times fn as a child span of the op in ctx, and runs fn with a
// context whose parent is the new span.
func (t *tracer) call(ctx context.Context, name string, fn func(context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	sc := spanFrom(ctx)
	s := Span{ID: t.newID(), Parent: sc.parent, Op: sc.op, Name: name, Start: t.now()}
	err := fn(withSpan(ctx, sc.op, s.ID))
	s.End = t.now()
	t.record(s)
	return err
}

// route names the API route of a request the way the per-layer metrics do.
func route(method, path, query string) string {
	switch {
	case method == http.MethodPost && path == "/v2/jobs":
		return "submit"
	case method == http.MethodDelete && strings.HasPrefix(path, "/v2/jobs/"):
		return "release"
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/result") && strings.Contains(query, "range="):
		return "range"
	case strings.HasSuffix(path, "/result"):
		return "result"
	case strings.HasPrefix(path, "/v2/specs"):
		return "catalog"
	case strings.HasPrefix(path, "/v2/jobs/"):
		return "status"
	}
	return "other"
}

// handler wraps the server: it times each request per route, as a child of
// the client request span named in the request headers.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := Span{ID: t.newID(), Name: "server." + route(r.Method, r.URL.Path, r.URL.RawQuery), Start: t.now()}
		s.Op, _ = strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		s.Parent, _ = strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		next.ServeHTTP(w, r)
		s.End = t.now()
		t.record(s)
	})
}

// transport wraps the clients' HTTP transport: it times each request from
// send to the end of its body, tags it with span headers, and watches
// event streams for their first progress.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tr.t
	sc := spanFrom(req.Context())
	s := Span{ID: t.newID(), Parent: sc.parent, Op: sc.op, Start: t.now()}
	rt := route(req.Method, req.URL.Path, req.URL.RawQuery)
	s.Name = "http." + rt
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.FormatInt(sc.op, 10))
	req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	resp, err := tr.base.RoundTrip(req)
	if err != nil {
		s.End = t.now()
		t.record(s)
		return nil, err
	}
	if rt == "submit" {
		t.observe(sc.op, func(o *opObs) { o.submitted = t.now() })
	}
	body := &tracedBody{ReadCloser: resp.Body, t: t, span: s, events: rt == "events"}
	resp.Body = body
	return resp, nil
}

// tracedBody ends its request span when the body is closed, and for event
// streams counts events and notes the first one that reports done > 0.
type tracedBody struct {
	io.ReadCloser
	t      *tracer
	span   Span
	events bool
	once   sync.Once
	line   []byte
	event  string
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.events {
		b.scan(p[:n])
	}
	return n, err
}

func (b *tracedBody) scan(p []byte) {
	for len(p) > 0 {
		nl := bytes.IndexByte(p, '\n')
		if nl < 0 {
			b.line = append(b.line, p...)
			return
		}
		line := append(b.line, p[:nl]...)
		b.line = b.line[:0]
		p = p[nl+1:]
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			b.event = string(line[len("event: "):])
			b.t.observe(b.span.Op, func(o *opObs) { o.events++ })
		case bytes.HasPrefix(line, []byte("data: ")) && (b.event == "progress" || b.event == "end"):
			var st struct {
				Progress struct {
					Done int `json:"done"`
				} `json:"progress"`
			}
			if json.Unmarshal(line[len("data: "):], &st) == nil && st.Progress.Done > 0 {
				now := b.t.now()
				b.t.observe(b.span.Op, func(o *opObs) {
					if o.firstProgress == 0 {
						o.firstProgress = now
					}
				})
			}
		}
	}
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.span.End = b.t.now()
		b.t.record(b.span)
	})
	return err
}

// tracedStore decorates the server's store: every call is a span, owned by
// the op whose job it writes when the job is known. The spans go to the
// trace file only; the store metrics come from replayStore.
type tracedStore struct {
	store.Store
	t *tracer
}

func (s tracedStore) timed(name, jobID string, fn func() error) error {
	sp := Span{ID: s.t.newID(), Name: name, Start: s.t.now()}
	err := fn()
	sp.End = s.t.now()
	if op, ok := s.t.jobs.Load(jobID); ok {
		sp.Op = op.(int64)
	}
	s.t.record(sp)
	return err
}

func (s tracedStore) Load() (store.Snapshot, error) {
	var snap store.Snapshot
	err := s.timed("store.load", "", func() error {
		var err error
		snap, err = s.Store.Load()
		return err
	})
	return snap, err
}

func (s tracedStore) PutJob(rec store.JobRecord) error {
	return s.timed("store.put_job", rec.ID, func() error { return s.Store.PutJob(rec) })
}

func (s tracedStore) PutJobRange(jobID string, lo int, results []json.RawMessage) error {
	return s.timed("store.put_range", jobID, func() error { return s.Store.PutJobRange(jobID, lo, results) })
}

// finish fills in every span's self time — its duration minus the part of
// it that its children cover — and returns the spans in start order.
func (t *tracer) finish() []Span {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, k int) bool { return spans[i].Start < spans[k].Start })
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		covered, reach := int64(0), s.Start
		for _, c := range children[s.ID] { // in start order
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return spans
}

// named returns the durations of spans with the given name, in
// microseconds.
func named(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// writeSpans writes the spans and a per-name self-time summary as JSON.
func writeSpans(dir, file string, spans []Span) error {
	type nameSummary struct {
		Count     int     `json:"count"`
		SelfP50Us float64 `json:"self_p50_us"`
		SelfP99Us float64 `json:"self_p99_us"`
	}
	self := map[string][]float64{}
	for _, s := range spans {
		self[s.Name] = append(self[s.Name], float64(s.Self)/1e3)
	}
	summary := map[string]nameSummary{}
	for name, v := range self {
		summary[name] = nameSummary{Count: len(v), SelfP50Us: quantile(v, 0.5), SelfP99Us: quantile(v, 0.99)}
	}
	b, err := json.MarshalIndent(map[string]any{"summary": summary, "spans": spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}
