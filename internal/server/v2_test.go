// The v2 API tests live in an external test package so they can exercise the
// server through the public client SDK (which itself imports server for the
// wire types); an in-package test would form an import cycle.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gameofcoins/client"
	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/server"
)

func v2Server(t *testing.T) string {
	t.Helper()
	_, base := v2ServerWith(t)
	return base
}

// v2ServerWith is v2Server that also returns the server, for tests that
// watch a job after its last handle is released (Server.WaitJobTerminal).
func v2ServerWith(t *testing.T) (*server.Server, string) {
	t.Helper()
	s := server.New(4)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

// ---- test-only spec kinds, registered exactly like third-party ones ----

// toySpec demonstrates the acceptance criterion for the registry redesign: a
// brand-new job kind defined outside internal/server, registered with one
// RegisterSpec call, and runnable end to end over /v2 with the client SDK —
// the server code is never touched.
type toySpec struct {
	N int `json:"n"`
}

func (s toySpec) Kind() string { return "toy_sum" }
func (s toySpec) Tasks() int   { return s.N }
func (s toySpec) Validate() error {
	if s.N <= 0 {
		return errors.New("n must be positive")
	}
	return nil
}
func (s toySpec) RunTask(_ context.Context, i int, _ *rng.Rand) (any, error) { return 2 * i, nil }
func (s toySpec) Aggregate(results []any) (any, error) {
	sum := 0
	for _, r := range results {
		sum += r.(int)
	}
	return sum, nil
}

// gatedSpec blocks its tasks past Free on a per-Name latch, so tests control
// exactly when a running v2 job may finish. Name also keeps distinct tests
// off each other's cache entries.
type gatedSpec struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Free int    `json:"free"`
}

var gates sync.Map // name → chan struct{}

func gateChan(name string) chan struct{} {
	ch, _ := gates.LoadOrStore(name, make(chan struct{}))
	return ch.(chan struct{})
}

func openGate(name string) {
	ch := gateChan(name)
	select {
	case <-ch:
	default:
		close(ch)
	}
}

func (s gatedSpec) Kind() string { return "test_gated" }
func (s gatedSpec) Tasks() int   { return s.N }
func (s gatedSpec) RunTask(ctx context.Context, i int, _ *rng.Rand) (any, error) {
	if i >= s.Free {
		select {
		case <-gateChan(s.Name):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return i, nil
}
func (s gatedSpec) Aggregate(results []any) (any, error) { return len(results), nil }

func init() {
	engine.RegisterSpec("toy_sum", 1, engine.DecodeJSON[toySpec](),
		engine.SchemaObject(map[string]*engine.Schema{"n": engine.SchemaInt("number of tasks")}))
	engine.RegisterSpec("test_gated", 1, engine.DecodeJSON[gatedSpec](), nil)
}

// TestToySpecEndToEndOverV2: the registered toy kind is visible in
// /v2/specs and runs through submit → wait → result purely via the SDK.
func TestToySpecEndToEndOverV2(t *testing.T) {
	c := client.New(v2Server(t))
	ctx := context.Background()

	kinds, err := c.SpecKinds(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range kinds {
		found = found || k == "toy_sum"
	}
	if !found {
		t.Fatalf("toy_sum missing from registry listing %v", kinds)
	}

	h, err := c.Submit(ctx, "toy_sum", 9, toySpec{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != engine.StateDone || st.Progress.Total != 10 {
		t.Fatalf("terminal status = %+v", st)
	}
	var sum int
	if err := h.Result(ctx, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 90 { // 2*(0+1+...+9)
		t.Fatalf("sum = %d, want 90", sum)
	}
	if err := h.Release(ctx); err != nil {
		t.Fatal(err)
	}
	// A released handle is gone.
	if _, err := h.Status(ctx); err == nil {
		t.Fatal("released handle still resolves")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Fatalf("err = %v, want 404 APIError", err)
		}
	}
}

// TestGameRefMatchesInlineGame: a learn_sweep naming a game registered via
// POST /v2/games and the same sweep carrying that game inline are one
// logical job — the reference resolves before the cache key is taken — so
// they share one cache entry and serve byte-identical results, in either
// submission order.
func TestGameRefMatchesInlineGame(t *testing.T) {
	base := v2Server(t)
	c := client.New(base)
	ctx := context.Background()

	game := core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 13}, {Name: "p2", Power: 7}, {Name: "p3", Power: 5}},
		[]core.Coin{{Name: "btc"}, {Name: "bch"}},
		[]float64{17, 9},
	)
	gameID, err := c.RegisterGame(ctx, game)
	if err != nil {
		t.Fatal(err)
	}
	byRef := engine.LearnSweep{GameID: gameID, Schedulers: []string{"random"}, Runs: 8}
	inline := engine.LearnSweep{Game: game, Schedulers: []string{"random"}, Runs: 8}

	for i, order := range [][2]engine.LearnSweep{{byRef, inline}, {inline, byRef}} {
		seed := uint64(11 + i)
		first, err := c.SubmitLearnSweep(ctx, order[0], seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := first.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		second, err := c.SubmitLearnSweep(ctx, order[1], seed)
		if err != nil {
			t.Fatal(err)
		}
		if !second.Submitted.Cached || second.Submitted.Status.ID != first.Submitted.Status.ID {
			t.Fatalf("order %d: second form missed the first's cache entry: %+v vs %s",
				i, second.Submitted, first.Submitted.Status.ID)
		}
		b1 := rawGet(t, base+"/v2/jobs/"+first.ID()+"/result")
		b2 := rawGet(t, base+"/v2/jobs/"+second.ID()+"/result")
		if !bytes.Equal(b1, b2) {
			t.Fatalf("order %d: result bodies differ:\n%s\n%s", i, b1, b2)
		}
	}
}

// TestHandleRefcountSharedJob: two clients dedupe onto one job; releasing
// one handle leaves the other running to completion, and releasing the last
// handle of a different shared job cancels it.
func TestHandleRefcountSharedJob(t *testing.T) {
	srv, base := v2ServerWith(t)
	c1, c2 := client.New(base), client.New(base)
	ctx := context.Background()

	spec := gatedSpec{Name: "refcount-" + strconv.Itoa(time.Now().Nanosecond()), N: 2}
	defer openGate(spec.Name)
	h1, err := c1.Submit(ctx, "test_gated", 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c2.Submit(ctx, "test_gated", 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Submitted.Cached || h2.Submitted.Status.ID != h1.Submitted.Status.ID {
		t.Fatalf("second client not deduped onto the first job: %+v vs %+v", h2.Submitted, h1.Submitted)
	}
	if h1.ID() == h2.ID() {
		t.Fatalf("both clients got the same handle %s", h1.ID())
	}
	if h2.Submitted.Clients != 2 {
		t.Fatalf("clients = %d, want 2", h2.Submitted.Clients)
	}

	// Client 1 walks away. The job must keep running for client 2: one
	// client's release never cancels work another client still holds.
	if err := h1.Release(ctx); err != nil {
		t.Fatal(err)
	}
	jh, err := h2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if jh.State.Terminal() {
		t.Fatalf("job killed by the other client's release: %+v", jh)
	}
	if jh.Clients != 1 {
		t.Fatalf("clients = %d after one release, want 1", jh.Clients)
	}

	openGate(spec.Name)
	st, err := h2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != engine.StateDone {
		t.Fatalf("surviving handle's job ended %s, want done", st.State)
	}
	var n int
	if err := h2.Result(ctx, &n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("result = %d, want 2", n)
	}

	// Releasing the *last* handle of a running job cancels it.
	spec2 := gatedSpec{Name: spec.Name + "-cancel", N: 2}
	defer openGate(spec2.Name)
	h3, err := c1.Submit(ctx, "test_gated", 2, spec2)
	if err != nil {
		t.Fatal(err)
	}
	h4, err := c2.Submit(ctx, "test_gated", 2, spec2)
	if err != nil {
		t.Fatal(err)
	}
	jobID := h3.Submitted.Status.ID
	if err := h4.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h3.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if st := srv.WaitJobTerminal(t, jobID); st.State != engine.StateCanceled {
		t.Fatalf("job state after last release = %s, want canceled", st.State)
	}
}

// TestSSEProgressStream: the SDK's Watch (SSE under the hood) delivers at
// least one genuine progress event (0 < done < total, non-terminal) and the
// terminal event for a multi-task job.
func TestSSEProgressStream(t *testing.T) {
	base := v2Server(t)
	c := client.New(base)
	ctx := context.Background()

	spec := gatedSpec{Name: "sse-" + strconv.Itoa(time.Now().Nanosecond()), N: 6, Free: 3}
	defer openGate(spec.Name)
	h, err := c.Submit(ctx, "test_gated", 3, spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := h.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var progressEvents int
	var last engine.Status
	for st := range ch {
		last = st
		if !st.State.Terminal() && st.Progress.Done > 0 && st.Progress.Done < st.Progress.Total {
			progressEvents++
			if st.Progress.Done >= spec.Free {
				openGate(spec.Name) // saw the mid-job progress; let it finish
			}
		}
	}
	if progressEvents == 0 {
		t.Fatal("no mid-job progress event observed on the SSE stream")
	}
	if last.State != engine.StateDone || last.Progress.Done != spec.N {
		t.Fatalf("terminal event = %+v", last)
	}
	if err := h.Release(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestV2BadEnvelopes covers the v2 error surface: unknown kind and version,
// malformed envelope, failed validation, unknown game ref (400); schema
// mismatches — misspelled or mistyped spec fields — are 422 with a
// JSON-pointer "path" into the spec document.
func TestV2BadEnvelopes(t *testing.T) {
	base := v2Server(t)
	for name, c := range map[string]struct {
		body string
		code int
		path string
	}{
		"unknown_kind":      {body: `{"kind":"bogus_sweep","seed":1,"spec":{}}`, code: 400},
		"unknown_version":   {body: `{"kind":"equilibrium_sweep@v9","seed":1,"spec":{}}`, code: 400},
		"malformed_version": {body: `{"kind":"equilibrium_sweep@x","seed":1,"spec":{}}`, code: 400},
		"invalid_spec":      {body: `{"kind":"equilibrium_sweep","seed":1,"spec":{"games":0}}`, code: 400},
		"unknown_game":      {body: `{"kind":"learn_sweep","seed":1,"spec":{"game_id":"g-nope","runs":3}}`, code: 400},
		"envelope_typo":     {body: `{"knd":"equilibrium_sweep","seed":1}`, code: 400},
		"replay_inner_seed": {body: `{"kind":"replay_sweep","seed":1,"spec":{"params":{"Miners":30,"Epochs":48,"SpikeHour":24,"Seed":9},"runs":1}}`, code: 400},
		"unknown_field":     {body: `{"kind":"equilibrium_sweep","seed":1,"spec":{"gmaes":5}}`, code: 422, path: "/gmaes"},
		"mistyped_field":    {body: `{"kind":"equilibrium_sweep","seed":1,"spec":{"games":"many"}}`, code: 422, path: "/games"},
		"nested_mistype":    {body: `{"kind":"learn_sweep","seed":1,"spec":{"gen":{"Miners":"eight"},"runs":3}}`, code: 422, path: "/gen/Miners"},
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(base+"/v2/jobs", "application/json", bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.code {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.code)
			}
			var e struct {
				Error string `json:"error"`
				Path  string `json:"path"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error body undecodable: %v %+v", err, e)
			}
			if e.Path != c.path {
				t.Fatalf("path = %q, want %q", e.Path, c.path)
			}
		})
	}
}

// TestOversizedBodiesAre413: a request body past MaxRequestBody is refused
// with a JSON 413 on both the client API and the worker protocol, without
// being buffered whole.
func TestOversizedBodiesAre413(t *testing.T) {
	s, _ := v2ServerWith(t)
	pad := strings.Repeat("a", server.MaxRequestBody)
	for _, c := range []struct{ name, path, body string }{
		{"submit", "/v2/jobs", `{"kind":"` + pad + `","seed":1}`},
		{"dist_report", "/dist/report", `{"worker_id":"` + pad + `"}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413: %.200s", rec.Code, rec.Body.Bytes())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("413 body is not a JSON error: %v %.200s", err, rec.Body.Bytes())
			}
		})
	}
}

func rawGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, b)
	}
	return b
}

// handleStatus reads the status of the job behind a handle.
func handleStatus(t *testing.T, base, handle string) engine.Status {
	t.Helper()
	var jh server.JobHandle
	if err := json.Unmarshal(rawGet(t, base+"/v2/jobs/"+handle), &jh); err != nil {
		t.Fatal(err)
	}
	return jh.Status
}

func waitHandleTerminal(t *testing.T, base, handle string) engine.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if st := handleStatus(t, base, handle); st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return engine.Status{}
}

func waitHandleDone(t *testing.T, base, handle string) {
	t.Helper()
	if st := waitHandleTerminal(t, base, handle); st.State != engine.StateDone {
		t.Fatalf("job %s (handle %s) ended %s: %s", st.ID, handle, st.State, st.Error)
	}
}
