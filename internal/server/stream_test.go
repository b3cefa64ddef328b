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
	engine.RegisterResultCodec("test_stream", 1, engine.ResultJSON[int](), rs)

	engine.RegisterSpec("test_badtask", 1, engine.DecodeJSON[badTaskSpec](), nil)
	engine.RegisterResultCodec("test_badtask", 1, engine.ResultJSON[int](), stringTasks())

	// test_pinned@v1 streams the int documents its task $def declares; its
	// v2 declares string documents, which v1 jobs do not produce.
	engine.RegisterSpec("test_pinned", 1, engine.DecodeJSON[pinnedSpec](), nil)
	engine.RegisterResultCodec("test_pinned", 1, engine.ResultJSON[int](), rs)
	engine.RegisterSpec("test_pinned", 2, engine.DecodeJSON[pinnedSpec](), nil)
	engine.RegisterResultCodec("test_pinned", 2, engine.ResultJSON[int](), stringTasks())
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
	if !errors.As(err, &se) || !strings.HasPrefix(err.Error(), "client: task 0 result: ") || se.Msg != "want string, got number" {
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

// waitRangeCoverage polls the store until the job's persisted range records
// cover [0, want) contiguously.
func waitRangeCoverage(t *testing.T, st *store.File, jobID string, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		cov := 0
		for _, rr := range snap.Ranges[jobID] {
			if rr.Lo <= cov && rr.End() > cov {
				cov = rr.End()
			}
		}
		if cov >= want {
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

			// The done record keeps the job's spans — a later restart must
			// still serve ?range from them — and by then they must cover
			// every task contiguously from 0.
			waitRecordState(t, p2.st, jobID, store.JobDone)
			snap, err := p2.st.Load()
			if err != nil {
				t.Fatal(err)
			}
			recs := snap.Ranges[jobID]
			if len(recs) != 1 || recs[0].Lo != 0 || len(recs[0].Results) != tr.n {
				t.Fatalf("done job's persisted ranges = %+v, want one [0,%d) span", recs, tr.n)
			}
		})
	}
}

func sumStreamDocs(n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += 1000 + 3*i
	}
	return sum
}
