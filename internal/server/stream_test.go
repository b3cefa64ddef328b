// Result data plane tests: the ?range= endpoint, result schemas in the
// catalog, SSE result-range replay across reconnects, the SDK's StreamResult,
// and the restart property — persisted ranges mean only the unfinished
// suffix recomputes, and the assembled bytes match an uninterrupted run.
package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gameofcoins/client"
	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/server"
	"gameofcoins/internal/store"
)

// streamSpec is the data-plane test kind: task i yields 1000+3*i (independent
// of Name, so runs under different names are byte-comparable), tasks at or
// past Free block on the per-Name gate, and every COMPLETED execution is
// counted per (Name, task) — a task parked in the gate that gets canceled
// never counts, so run counts measure exactly the executions whose results
// the engine saw.
type streamSpec struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Free int    `json:"free"`
}

func (s streamSpec) Kind() string { return "test_stream" }
func (s streamSpec) Tasks() int   { return s.N }
func (s streamSpec) RunTask(ctx context.Context, i int, _ *rng.Rand) (any, error) {
	if i >= s.Free {
		select {
		case <-gateChan(s.Name):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	recordRun(s.Name, i)
	return 1000 + 3*i, nil
}
func (s streamSpec) Aggregate(results []any) (any, error) {
	sum := 0
	for _, r := range results {
		sum += r.(int)
	}
	return sum, nil
}
func (s streamSpec) EncodeTaskResult(res any) (json.RawMessage, error) { return json.Marshal(res) }
func (s streamSpec) DecodeTaskResult(raw json.RawMessage) (any, error) {
	var v int
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}

var (
	streamRunsMu sync.Mutex
	streamRuns   = map[string]map[int]int{} // spec name → task → completed executions

	// streamNameSeq makes gate names unique per test invocation: gates are
	// process-global and openGate closes them permanently, so a reused name
	// under -count>1 would start life with its gate already open.
	streamNameSeq atomic.Int64
)

func uniqueName(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, streamNameSeq.Add(1))
}

func recordRun(name string, task int) {
	streamRunsMu.Lock()
	defer streamRunsMu.Unlock()
	m := streamRuns[name]
	if m == nil {
		m = map[int]int{}
		streamRuns[name] = m
	}
	m[task]++
}

func runCounts(name string) map[int]int {
	streamRunsMu.Lock()
	defer streamRunsMu.Unlock()
	out := map[int]int{}
	for task, n := range streamRuns[name] {
		out[task] = n
	}
	return out
}

func init() {
	engine.RegisterSpec("test_stream", 1, engine.DecodeJSON[streamSpec](),
		engine.SchemaObject(map[string]*engine.Schema{
			"name": engine.SchemaString("gate namespace"),
			"n":    engine.SchemaInt("number of tasks"),
			"free": engine.SchemaInt("tasks below this index run ungated"),
		}))
	rs := engine.SchemaInt("sum of per-task values")
	rs.Defs = map[string]*engine.Schema{"task": engine.SchemaInt("per-task value, 1000+3*i")}
	engine.RegisterResultSchema("test_stream", 1, rs)

	engine.RegisterSpec("test_badtask", 1, engine.DecodeJSON[badTaskSpec](), nil)
	engine.RegisterResultSchema("test_badtask", 1, stringTasks())

	// test_pinned@v1 streams the int documents its task $def declares; its
	// v2 declares string documents, which v1 jobs do not produce.
	engine.RegisterSpec("test_pinned", 1, engine.DecodeJSON[pinnedSpec](), nil)
	engine.RegisterResultSchema("test_pinned", 1, rs)
	engine.RegisterSpec("test_pinned", 2, engine.DecodeJSON[pinnedSpec](), nil)
	engine.RegisterResultSchema("test_pinned", 2, stringTasks())
}

// stringTasks is a result schema declaring string task documents, which the
// int documents of streamSpec's tasks are not.
func stringTasks() *engine.Schema {
	s := engine.SchemaInt("sum of per-task values")
	s.Defs = map[string]*engine.Schema{"task": engine.SchemaString("a string, which the int documents are not")}
	return s
}

// badTaskSpec runs streamSpec's tasks under a kind whose result schema
// declares string task documents, so every streamed document violates it.
type badTaskSpec struct{ streamSpec }

func (badTaskSpec) Kind() string { return "test_badtask" }

// pinnedSpec runs streamSpec's tasks under test_pinned, a kind with two
// versions whose task $defs disagree.
type pinnedSpec struct{ streamSpec }

func (pinnedSpec) Kind() string { return "test_pinned" }

// ---- helpers ----

func streamDoc(i int) string { return fmt.Sprint(1000 + 3*i) }

// waitWatermark polls the handle's status until the job's ledger watermark
// covers [0, want).
func waitWatermark(t *testing.T, base, handle string, want int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if st := handleStatus(t, base, handle); st.Progress.Watermark >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("handle %s watermark never reached %d", handle, want)
}

func getStatusCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

type rangeBody struct {
	ID      string            `json:"id"`
	Kind    string            `json:"kind"`
	Lo      int               `json:"lo"`
	Hi      int               `json:"hi"`
	Total   int               `json:"total"`
	Results []json.RawMessage `json:"results"`
}

func getRange(t *testing.T, base, handle string, lo, hi int) rangeBody {
	t.Helper()
	var out rangeBody
	raw := rawGet(t, fmt.Sprintf("%s/v2/jobs/%s/result?range=%d-%d", base, handle, lo, hi))
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResultRangeEndpoint: completed spans are served mid-run; incomplete
// spans are 409, malformed or out-of-bounds spans 400, and kinds without a
// TaskCoder 410.
func TestResultRangeEndpoint(t *testing.T) {
	base := v2Server(t)
	c := client.New(base)
	ctx := context.Background()

	spec := streamSpec{Name: uniqueName("range-endpoint"), N: 8, Free: 4}
	defer openGate(spec.Name)
	h, err := c.Submit(ctx, "test_stream", 7, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, base, h.ID(), spec.Free)

	body := getRange(t, base, h.ID(), 0, 4)
	if body.Lo != 0 || body.Hi != 4 || body.Total != 8 || len(body.Results) != 4 {
		t.Fatalf("range body = %+v", body)
	}
	for i, d := range body.Results {
		if string(d) != streamDoc(i) {
			t.Fatalf("task %d doc = %s, want %s", i, d, streamDoc(i))
		}
	}

	rangeURL := func(q string) string { return base + "/v2/jobs/" + h.ID() + "/result?range=" + q }
	if code := getStatusCode(t, rangeURL("4-8")); code != http.StatusConflict {
		t.Fatalf("incomplete span status = %d, want 409", code)
	}
	if code := getStatusCode(t, rangeURL("0-99")); code != http.StatusBadRequest {
		t.Fatalf("out-of-bounds span status = %d, want 400", code)
	}
	if code := getStatusCode(t, rangeURL("abc")); code != http.StatusBadRequest {
		t.Fatalf("malformed span status = %d, want 400", code)
	}

	openGate(spec.Name)
	waitHandleDone(t, base, h.ID())
	body = getRange(t, base, h.ID(), 0, 8)
	if len(body.Results) != 8 || string(body.Results[7]) != streamDoc(7) {
		t.Fatalf("finished range body = %+v", body)
	}

	// A kind without a TaskCoder has no ledger: 410, even once finished.
	gh, err := c.Submit(ctx, "test_gated", 1, gatedSpec{Name: "range-no-ledger", N: 2, Free: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitHandleDone(t, base, gh.ID())
	if code := getStatusCode(t, base+"/v2/jobs/"+gh.ID()+"/result?range=0-1"); code != http.StatusGone {
		t.Fatalf("no-ledger span status = %d, want 410", code)
	}
}

// TestRestoredShortPrefixIsGone: a done job restored with fewer persisted
// documents than tasks serves the documents it has, and answers a span
// past them with 410: its watermark will never move again, so the 409 that
// means "retry later" would have clients poll forever.
func TestRestoredShortPrefixIsGone(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := store.JobRecord{ID: "job-1", Key: "short-prefix", Kind: "test_stream", Version: 1, Seed: 7, Tasks: 3,
		Spec: json.RawMessage(`{"name":"short-prefix","n":3,"free":3}`), State: store.JobDone, Result: json.RawMessage(`3009`)}
	for _, put := range []func() error{
		func() error { return st.PutJob(rec) },
		func() error {
			return st.PutJobRange("job-1", 0, []json.RawMessage{json.RawMessage(streamDoc(0)), json.RawMessage(streamDoc(1))})
		},
		func() error { return st.PutHandle("h-1", "job-1") },
		st.Close,
	} {
		if err := put(); err != nil {
			t.Fatal(err)
		}
	}
	p := openPersistent(t, dir, false)
	if body := getRange(t, p.URL, "h-1", 0, 2); len(body.Results) != 2 || string(body.Results[1]) != streamDoc(1) {
		t.Fatalf("persisted span body = %+v", body)
	}
	if code := getStatusCode(t, p.URL+"/v2/jobs/h-1/result?range=0-3"); code != http.StatusGone {
		t.Fatalf("span past the persisted documents: status %d, want 410", code)
	}
}

// rangeSpy is a file store that records the span of every PutJobDocs.
type rangeSpy struct {
	*store.File
	mu    sync.Mutex
	spans []engine.TaskRange
}

func (s *rangeSpy) PutJobDocs(jobID string, docs engine.Docs) error {
	s.mu.Lock()
	s.spans = append(s.spans, engine.TaskRange{Lo: 0, Hi: docs.Len()})
	s.mu.Unlock()
	return s.File.PutJobDocs(jobID, docs)
}

func (s *rangeSpy) recorded() []engine.TaskRange {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.spans)
}

// TestWatcherStopsAtTheCap: the watcher persists a job's documents up to
// store.RangeDocCap and no further, though its watermark goes on past it;
// the store still holds exactly the capped prefix, the done record lands,
// and the job keeps its run.
func TestWatcherStopsAtTheCap(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spy := &rangeSpy{File: st}
	s, err := server.NewWithOptions(2, server.Options{Store: spy})
	if err != nil {
		t.Fatal(err)
	}
	p := servePersistent(t, s, st)
	spec := streamSpec{Name: uniqueName("range-cap"), N: store.RangeDocCap + 200, Free: store.RangeDocCap + 100}
	defer openGate(spec.Name)
	h, err := client.New(p.URL).Submit(context.Background(), "test_stream", 7, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The free prefix runs past the cap; the gated tasks wait until the
	// watcher has persisted up to it.
	id := h.Submitted.Status.ID
	waitRangeCoverage(t, st, id, store.RangeDocCap)
	openGate(spec.Name)
	waitHandleDone(t, p.URL, h.ID())
	waitRecordState(t, st, id, store.JobDone)
	spans := spy.recorded()
	if i := slices.IndexFunc(spans, func(sp engine.TaskRange) bool { return sp.Hi >= store.RangeDocCap }); i != len(spans)-1 {
		t.Fatalf("the watcher persisted %v after the span that reached the cap", spans[i+1:])
	}
	last, err := st.ReadDocs(nil, id, store.RangeDocCap-1, store.RangeDocCap)
	if held := st.HeldDocs(id); held != store.RangeDocCap || err != nil || string(last) != streamDoc(store.RangeDocCap-1) {
		t.Fatalf("the store holds %d documents, the last %s (%v); want tasks [0,%d)", held, last, err, store.RangeDocCap)
	}
	// Past the cap the store cannot serve every span, so the job keeps its
	// run.
	if docs, err := p.s.JobRange(id, 0, spec.N); err != nil || docs.Len() != spec.N {
		t.Fatalf("a job past the cap: ledger %d documents, %v; want its run", docs.Len(), err)
	}
}

// TestResultRangeServesDocumentsVerbatim: a ?range body carries each
// per-task document exactly as the spec's TaskCoder encoded it — compact,
// byte-identical to the ledger and the store — however small the span.
// Object-valued documents (learn_sweep's {"steps","converged"}) are the
// ones a re-encoding response writer would re-indent.
func TestResultRangeServesDocumentsVerbatim(t *testing.T) {
	base := v2Server(t)
	c := client.New(base)
	ctx := context.Background()

	const seed = 5
	raw, err := engine.CanonicalSpecJSON(engine.LearnSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Schedulers: []string{"random"}, Runs: 6})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit(ctx, "learn_sweep", seed, raw)
	if err != nil {
		t.Fatal(err)
	}
	waitHandleDone(t, base, h.ID())

	// The reference encodings: each task run and encoded in-process, exactly
	// as the engine runs task i of the resolved spec.
	rs, err := engine.ResolveEnvelope(engine.JobEnvelope{Kind: "learn_sweep", Seed: seed, Spec: raw})
	if err != nil {
		t.Fatal(err)
	}
	coder := rs.Spec.(engine.TaskCoder)
	body := getRange(t, base, h.ID(), 0, rs.Spec.Tasks())
	if len(body.Results) != rs.Spec.Tasks() {
		t.Fatalf("range carries %d documents, want %d", len(body.Results), rs.Spec.Tasks())
	}
	for i, doc := range body.Results {
		out, err := rs.Spec.RunTask(ctx, i, rng.New(seed).Fork(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := coder.EncodeTaskResult(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, want) {
			t.Fatalf("task %d document = %q, want its TaskCoder encoding %q", i, doc, want)
		}
	}
}

// TestCatalogServesResultSchemas: every built-in kind (and the test kind)
// publishes a result schema whose $defs carry the per-task document shape
// the client SDK validates streamed results against.
func TestCatalogServesResultSchemas(t *testing.T) {
	c := client.New(v2Server(t))
	ctx := context.Background()
	for _, kind := range []string{"learn_sweep", "design_sweep", "replay_sweep", "equilibrium_sweep", "test_stream"} {
		entry, err := c.Spec(ctx, kind)
		if err != nil {
			t.Fatal(err)
		}
		if entry.ResultSchema == nil {
			t.Fatalf("%s: catalog entry has no result schema", kind)
		}
		if entry.ResultSchema.Defs["task"] == nil {
			t.Fatalf("%s: result schema has no task $def", kind)
		}
	}
}

type sseEvent struct {
	id, event, data string
}

// readSSE reads one complete SSE event (through its terminating blank line).
func readSSE(sc *bufio.Scanner) (sseEvent, bool) {
	var ev sseEvent
	seen := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if seen {
				return ev, true
			}
		case strings.HasPrefix(line, "id:"):
			seen = true
			ev.id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "event:"):
			seen = true
			ev.event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			seen = true
			ev.data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	return ev, false
}

func openSSE(t *testing.T, ctx context.Context, url, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("SSE connect: %d", resp.StatusCode)
	}
	return resp
}

// TestSSEReconnectReplaysResultRanges: a client that reconnects with the
// composite Last-Event-ID it last saw resumes result-range events exactly at
// its acknowledged watermark — no span is skipped and none is re-delivered.
func TestSSEReconnectReplaysResultRanges(t *testing.T) {
	base := v2Server(t)
	c := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := streamSpec{Name: uniqueName("sse-replay"), N: 6, Free: 3}
	defer openGate(spec.Name)
	h, err := c.Submit(ctx, "test_stream", 7, spec)
	if err != nil {
		t.Fatal(err)
	}
	eventsURL := base + "/v2/jobs/" + h.ID() + "/events"

	resp := openSSE(t, ctx, eventsURL, "")
	sc := bufio.NewScanner(resp.Body)
	covered := 0
	var saved string
	for covered < spec.Free {
		ev, ok := readSSE(sc)
		if !ok {
			t.Fatal("event stream ended before the free prefix completed")
		}
		if ev.id != "" {
			saved = ev.id
		}
		if ev.event != "result-range" {
			continue
		}
		var rr struct{ Lo, Hi int }
		if err := json.Unmarshal([]byte(ev.data), &rr); err != nil {
			t.Fatalf("result-range data %q: %v", ev.data, err)
		}
		if rr.Lo != covered {
			t.Fatalf("result-range gap: lo=%d, covered=%d", rr.Lo, covered)
		}
		covered = rr.Hi
	}
	resp.Body.Close()
	if saved == "" {
		t.Fatal("no event id observed before disconnect")
	}

	openGate(spec.Name)
	resp = openSSE(t, ctx, eventsURL, saved)
	defer resp.Body.Close()
	sc = bufio.NewScanner(resp.Body)
	for {
		ev, ok := readSSE(sc)
		if !ok {
			t.Fatal("resumed stream ended before the end event")
		}
		if ev.event == "result-range" {
			var rr struct{ Lo, Hi int }
			if err := json.Unmarshal([]byte(ev.data), &rr); err != nil {
				t.Fatalf("result-range data %q: %v", ev.data, err)
			}
			if rr.Lo != covered {
				t.Fatalf("resumed result-range lo=%d, want %d (skip or duplicate)", rr.Lo, covered)
			}
			covered = rr.Hi
		}
		if ev.event == "end" {
			break
		}
	}
	if covered != spec.N {
		t.Fatalf("resumed stream covered [0,%d), want [0,%d)", covered, spec.N)
	}
}

// TestStreamResultClient: the SDK streams every per-task document in order,
// schema-validated, and returns the terminal status.
func TestStreamResultClient(t *testing.T) {
	base := v2Server(t)
	c := client.New(base)
	ctx := context.Background()

	spec := streamSpec{Name: "stream-client", N: 6, Free: 6}
	h, err := c.Submit(ctx, "test_stream", 3, spec)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	st, err := h.StreamResult(ctx, func(task int, doc json.RawMessage) error {
		if task != len(got) {
			t.Fatalf("task %d delivered out of order (have %d)", task, len(got))
		}
		got = append(got, string(doc))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != engine.StateDone {
		t.Fatalf("terminal state = %s", st.State)
	}
	if len(got) != spec.N {
		t.Fatalf("streamed %d docs, want %d", len(got), spec.N)
	}
	for i, d := range got {
		if d != streamDoc(i) {
			t.Fatalf("task %d doc = %s, want %s", i, d, streamDoc(i))
		}
	}
}

// TestStreamResultRejectsInvalidTask: a document that fails the kind's task
// $def ends the stream with an error naming the task, before fn sees it.
func TestStreamResultRejectsInvalidTask(t *testing.T) {
	c := client.New(v2Server(t))
	ctx := context.Background()
	h, err := c.Submit(ctx, "test_badtask", 3, badTaskSpec{streamSpec{Name: uniqueName("badtask"), N: 4, Free: 4}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.StreamResult(ctx, func(task int, doc json.RawMessage) error {
		t.Fatalf("fn saw task %d (%s), which fails the task $def", task, doc)
		return nil
	})
	var se *engine.SchemaError
	if !errors.As(err, &se) || err.Error() != "client: task 0 result: task document: want string, got number" {
		t.Fatalf("err = %v, want a SchemaError for task 0", err)
	}
}

// TestStreamResultPinnedVersion: a job pinned to v1 streams against v1's
// task $def, not the latest version's — whether pinned with AtVersion or
// with BatchItem.Version.
func TestStreamResultPinnedVersion(t *testing.T) {
	c := client.New(v2Server(t))
	ctx := context.Background()
	stream := func(h *client.Handle) {
		t.Helper()
		n := 0
		st, err := h.StreamResult(ctx, func(task int, doc json.RawMessage) error {
			if string(doc) != streamDoc(task) {
				t.Fatalf("task %d doc = %s, want %s", task, doc, streamDoc(task))
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.State != engine.StateDone || n != 4 {
			t.Fatalf("stream ended %s after %d documents, want done after 4", st.State, n)
		}
	}
	h, err := c.Submit(ctx, "test_pinned", 3, pinnedSpec{streamSpec{Name: uniqueName("pinned"), N: 4, Free: 4}}, client.AtVersion(1))
	if err != nil {
		t.Fatal(err)
	}
	stream(h)
	batch, err := c.SubmitBatch(ctx, []client.BatchItem{{
		Kind: "test_pinned", Seed: 3, Version: 1,
		Spec: pinnedSpec{streamSpec{Name: uniqueName("pinned-batch"), N: 4, Free: 4}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Err != nil {
		t.Fatal(batch[0].Err)
	}
	stream(batch[0].Handle)
}

// dropLastDoc is a RoundTripper that drops the last document of every
// ?range= body, as a faulty proxy or server might.
type dropLastDoc struct{}

func (dropLastDoc) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Query().Get("range") == "" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	defer resp.Body.Close()
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	var docs []json.RawMessage
	if err := json.Unmarshal(body["results"], &docs); err != nil {
		return nil, err
	}
	if body["results"], err = json.Marshal(docs[:len(docs)-1]); err != nil {
		return nil, err
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	resp.ContentLength = int64(len(b))
	return resp, nil
}

// TestStreamResultChecksRangeLength: a ?range= answer with fewer documents
// than the span it was asked for ends the stream with an error naming the
// span, instead of skipping tasks and reporting success.
func TestStreamResultChecksRangeLength(t *testing.T) {
	c := client.New(v2Server(t), client.WithHTTPClient(&http.Client{Transport: dropLastDoc{}}))
	ctx := context.Background()
	h, err := c.Submit(ctx, "test_stream", 3, streamSpec{Name: uniqueName("short-range"), N: 6, Free: 6})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	_, err = h.StreamResult(ctx, func(int, json.RawMessage) error {
		delivered++
		return nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "client: range [0,") || !strings.Contains(err.Error(), "documents, want") {
		t.Fatalf("err = %v, want a short-range error", err)
	}
	if delivered != 0 {
		t.Fatalf("fn saw %d documents of a short range", delivered)
	}
}

// shiftRange is a RoundTripper that fetches the span one task below every
// ?range= the SDK asks for, as a faulty proxy or cache might.
type shiftRange struct{}

func (shiftRange) RoundTrip(req *http.Request) (*http.Response, error) {
	if rng := req.URL.Query().Get("range"); rng != "" {
		tr, err := engine.ParseTaskRange(rng)
		if err != nil {
			return nil, err
		}
		req = req.Clone(req.Context())
		q := req.URL.Query()
		q.Set("range", fmt.Sprintf("%d-%d", tr.Lo-1, tr.Hi-1))
		req.URL.RawQuery = q.Encode()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestResultRangeChecksSpan: a ?range= answer for another span of the same
// length is an error naming both spans, not the other tasks' documents
// passed off as the ones asked for.
func TestResultRangeChecksSpan(t *testing.T) {
	c := client.New(v2Server(t), client.WithHTTPClient(&http.Client{Transport: shiftRange{}}))
	ctx := context.Background()
	h, err := c.Submit(ctx, "test_stream", 3, streamSpec{Name: uniqueName("shifted-range"), N: 4, Free: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := h.Wait(ctx); err != nil || st.State != engine.StateDone {
		t.Fatalf("wait = %v, %v", st.State, err)
	}
	docs, err := h.ResultRange(ctx, 1, 3)
	if err == nil || !strings.Contains(err.Error(), "[1,3)") || !strings.Contains(err.Error(), "[0,2)") {
		t.Fatalf("ResultRange(1, 3) through a shifting proxy = %s, %v; want an error naming [1,3) and [0,2)", docs, err)
	}
}

// openPersistentW is openPersistent with a caller-chosen worker count — the
// restart property varies workers across lives to show the assembled bytes
// never depend on parallelism.
func openPersistentW(t *testing.T, dir string, workers int) *persistentServer {
	t.Helper()
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.NewWithOptions(workers, server.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return servePersistent(t, s, st)
}

// waitRangeCoverage polls the store until it holds the job's documents of
// tasks [0, want).
func waitRangeCoverage(t *testing.T, st *store.File, jobID string, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st.HeldDocs(jobID) >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never persisted range coverage %d", jobID, want)
}

// TestStreamPropertyRestart is the acceptance property for the result data
// plane: across (workers-before, workers-after, kill-point) combinations, a
// job killed mid-run and rehydrated recomputes ONLY the tasks above the
// persisted watermark (every task executes exactly once across both lives),
// and the range-assembled documents and aggregate are byte-identical to an
// uninterrupted single-shot run.
func TestStreamPropertyRestart(t *testing.T) {
	ctx := context.Background()

	// One-shot baselines, one per task count used below.
	baseline := map[int]rangeBody{}
	for _, n := range []int{20, 24} {
		base := v2Server(t)
		c := client.New(base)
		spec := streamSpec{Name: fmt.Sprintf("prop-oneshot-%d", n), N: n, Free: n}
		h, err := c.Submit(ctx, "test_stream", 7, spec)
		if err != nil {
			t.Fatal(err)
		}
		waitHandleDone(t, base, h.ID())
		baseline[n] = getRange(t, base, h.ID(), 0, n)
	}

	trials := []struct {
		w1, w2, kill, n int
	}{
		{1, 4, 5, 20},
		{4, 2, 0, 20},
		{8, 3, 13, 24},
		{2, 7, 19, 24},
	}
	for ti, tr := range trials {
		t.Run(fmt.Sprintf("w%d_w%d_kill%d", tr.w1, tr.w2, tr.kill), func(t *testing.T) {
			name := uniqueName(fmt.Sprintf("prop-restart-%d", ti))
			defer openGate(name)
			dir := t.TempDir()

			p := openPersistentW(t, dir, tr.w1)
			c := client.New(p.URL)
			spec := streamSpec{Name: name, N: tr.n, Free: tr.kill}
			h, err := c.Submit(ctx, "test_stream", 7, spec)
			if err != nil {
				t.Fatal(err)
			}
			jobID := h.Submitted.ID
			// The free prefix completes and its spans land in the store;
			// everything past the kill point is parked in the gate.
			waitRangeCoverage(t, p.st, jobID, tr.kill)
			p.shutdown()

			p2 := openPersistentW(t, dir, tr.w2)
			openGate(name)
			waitHandleDone(t, p2.URL, h.ID())

			counts := runCounts(name)
			for i := 0; i < tr.n; i++ {
				if counts[i] != 1 {
					t.Fatalf("task %d executed %d times across both lives, want exactly 1 (counts=%v)",
						i, counts[i], counts)
				}
			}

			got := getRange(t, p2.URL, h.ID(), 0, tr.n)
			want := baseline[tr.n]
			if len(got.Results) != len(want.Results) {
				t.Fatalf("assembled %d docs, baseline %d", len(got.Results), len(want.Results))
			}
			for i := range got.Results {
				if string(got.Results[i]) != string(want.Results[i]) {
					t.Fatalf("task %d doc = %s, baseline %s", i, got.Results[i], want.Results[i])
				}
			}
			var agg, aggBase struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(rawGet(t, p2.URL+"/v2/jobs/"+h.ID()+"/result"), &agg); err != nil {
				t.Fatal(err)
			}
			aggBase.Result = json.RawMessage(fmt.Sprint(sumStreamDocs(tr.n)))
			if string(agg.Result) != string(aggBase.Result) {
				t.Fatalf("aggregate = %s, want %s", agg.Result, aggBase.Result)
			}

			// The done record keeps the job's documents — a later restart
			// must still serve ?range from them — and by then they cover
			// every task from 0 and are their only copy: the ledger drops
			// its run once the store holds them all.
			waitRecordState(t, p2.st, jobID, store.JobDone)
			waitDropped(t, p2.s, jobID, tr.n)
			docs, err := p2.st.ReadDocs(nil, jobID, 0, tr.n)
			if joined := bytes.Join(toBytes(want.Results), []byte(",")); err != nil || !bytes.Equal(docs, joined) {
				t.Fatalf("done job's persisted docs = %s, %v; want the baseline's tasks [0,%d): %s", docs, err, tr.n, joined)
			}
		})
	}
}

// toBytes converts documents to byte slices.
func toBytes(docs []json.RawMessage) [][]byte {
	out := make([][]byte, len(docs))
	for i, d := range docs {
		out[i] = d
	}
	return out
}

func sumStreamDocs(n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += 1000 + 3*i
	}
	return sum
}

// TestResumeAcrossServerRestart downloads a real equilibrium_sweep across a
// server restart through the SDK: the first stream stops after 10 tasks, a
// new server opens the same store, and a second StreamResultFrom resumes at
// the cut and finishes. The SDK checks each document against the catalog's
// task schema; the assembled documents must equal a ?range fetch of the whole
// span, and the aggregate must validate against the result schema.
func TestResumeAcrossServerRestart(t *testing.T) {
	const games = 40
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := t.TempDir()
	spec := map[string]any{"gen": map[string]any{"Miners": 9, "Coins": 3}, "games": games}
	var docs []json.RawMessage
	collect := func(task int, doc json.RawMessage) error {
		if task != len(docs) {
			return fmt.Errorf("task %d delivered out of order (have %d)", task, len(docs))
		}
		docs = append(docs, doc)
		return nil
	}

	p1 := openPersistent(t, dir, false)
	h1, err := client.New(p1.URL).Submit(ctx, "equilibrium_sweep", 3, spec)
	if err != nil {
		t.Fatal(err)
	}
	errCut := errors.New("cut")
	_, err = h1.StreamResultFrom(ctx, 0, func(task int, doc json.RawMessage) error {
		if err := collect(task, doc); err != nil {
			return err
		}
		if len(docs) == 10 {
			return errCut
		}
		return nil
	})
	if !errors.Is(err, errCut) || len(docs) != 10 {
		t.Fatalf("first stream = %v after %d documents, want the cut after 10", err, len(docs))
	}
	p1.shutdown()

	// The resubmission lands on the same cache line, now served from the
	// store by a new server.
	p2 := openPersistent(t, dir, false)
	c := client.New(p2.URL)
	h, err := c.Submit(ctx, "equilibrium_sweep", 3, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.StreamResultFrom(ctx, len(docs), collect)
	if err != nil || st.State != engine.StateDone {
		t.Fatalf("resumed stream = %s, %v", st.State, err)
	}
	if len(docs) != games {
		t.Fatalf("streamed %d documents, want %d", len(docs), games)
	}
	ranged, err := h.ResultRange(ctx, 0, games)
	if err != nil || len(ranged) != games {
		t.Fatalf("?range fetch of [0,%d) = %d documents, %v", games, len(ranged), err)
	}
	for i := range ranged {
		if !bytes.Equal(ranged[i], docs[i]) {
			t.Fatalf("task %d: streamed %s, ?range %s", i, docs[i], ranged[i])
		}
	}

	entry, err := c.Spec(ctx, "equilibrium_sweep")
	if err != nil {
		t.Fatal(err)
	}
	if entry.ResultSchema == nil || entry.ResultSchema.Defs["task"] == nil {
		t.Fatal("catalog: equilibrium_sweep has no per-task result schema")
	}
	var agg json.RawMessage
	if err := h.Result(ctx, &agg); err != nil {
		t.Fatal(err)
	}
	if err := entry.ResultSchema.Validate(agg); err != nil {
		t.Fatalf("aggregate does not match the catalog result schema: %v", err)
	}

	// Resuming at the end delivers nothing and reports the job done.
	st, err = h.StreamResultFrom(ctx, games, func(task int, _ json.RawMessage) error {
		return fmt.Errorf("task %d delivered past the end", task)
	})
	if err != nil || st.State != engine.StateDone {
		t.Fatalf("stream from %d = %s, %v; want done and nothing delivered", games, st.State, err)
	}
}
