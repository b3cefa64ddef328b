package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/server"
)

// startServe runs gocserve's run with args on a free loopback port and
// waits until /healthz answers. The returned stop cancels run's context —
// the SIGINT/SIGTERM path main takes — and requires a clean exit; it also
// runs at cleanup if the test has not called it.
func startServe(t *testing.T, args ...string) (base string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", addr, "-workers", "2"}, args...), io.Discard) }()
	stopped := false
	stop = func() {
		t.Helper()
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
	t.Cleanup(stop)

	base = "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			var body map[string]any
			_ = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if body["status"] != "ok" {
				t.Fatalf("healthz = %v", body)
			}
			return base, stop
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeAndGracefulShutdown boots the real server on an ephemeral port,
// checks liveness, then cancels the context and verifies a clean exit.
func TestServeAndGracefulShutdown(t *testing.T) {
	_, stop := startServe(t)
	stop()
}

// call sends one request, with key as its bearer token when set, and
// returns the status, headers and body.
func call(t *testing.T, method, url, key, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// submit posts one envelope under key and returns its handle.
func submit(t *testing.T, base, key, envelope string) server.JobHandle {
	t.Helper()
	code, _, body := call(t, http.MethodPost, base+"/v2/jobs", key, envelope)
	var h server.JobHandle
	if err := json.Unmarshal(body, &h); code/100 != 2 || err != nil || h.Handle == "" {
		t.Fatalf("POST /v2/jobs %s = %d %s (%v)", envelope, code, body, err)
	}
	return h
}

// waitResult polls the handle's result under key until it is served and
// returns the body. A job that fails ends the test.
func waitResult(t *testing.T, base, key, handle string) []byte {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		code, _, body := call(t, http.MethodGet, base+"/v2/jobs/"+handle+"/result", key, "")
		switch {
		case code == http.StatusOK:
			return body
		case code != http.StatusConflict:
			t.Fatalf("GET result of %s = %d %s", handle, code, body)
		case time.Now().After(deadline):
			t.Fatalf("%s never finished", handle)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRestartServesStoredResult: under -data, a result computed before the
// process stops is served byte-identically by the next process on the same
// directory, through the handle minted before the restart, and an identical
// resubmission is answered from the cache. The restarted server serves the
// stored result document as it was written, once it passes the kind's
// result schema. (If the terminal record had not landed before the stop,
// the job recomputes to the same bytes, hence the polling.)
func TestRestartServesStoredResult(t *testing.T) {
	dir := t.TempDir()
	const envelope = `{"kind":"equilibrium_sweep","seed":7,"spec":{"gen":{"Miners":4,"Coins":2},"games":20}}`
	base, stop := startServe(t, "-data", dir)
	h := submit(t, base, "", envelope)
	before := waitResult(t, base, "", h.Handle)
	stop()

	base, _ = startServe(t, "-data", dir)
	if after := waitResult(t, base, "", h.Handle); !bytes.Equal(after, before) {
		t.Fatalf("result of %s differs after restart:\n%s\nwant\n%s", h.Handle, after, before)
	}
	if again := submit(t, base, "", envelope); !again.Cached || again.ID != h.ID {
		t.Fatalf("resubmission after restart = %+v, want cached %s", again, h.ID)
	}
}

// TestKeyedServeAdmission: with -keys, -rate and -burst, an unkeyed
// submission is 401; two tenants submitting one envelope get byte-identical
// results, the second from the cache; a high-priority envelope completes;
// and a burst past the token bucket is answered 429 with a Retry-After of
// at least a second.
func TestKeyedServeAdmission(t *testing.T) {
	keys := filepath.Join(t.TempDir(), "keys.txt")
	if err := os.WriteFile(keys, []byte("alpha:alpha-secret-0001\nbeta:beta-secret-0002\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	base, _ := startServe(t, "-keys", keys, "-rate", "3", "-burst", "3")
	const alpha, beta = "alpha-secret-0001", "beta-secret-0002"
	const envelope = `{"kind":"equilibrium_sweep","seed":7,"spec":{"gen":{"Miners":5,"Coins":2},"games":50}}`

	if code, _, body := call(t, http.MethodPost, base+"/v2/jobs", "", envelope); code != http.StatusUnauthorized {
		t.Fatalf("unkeyed submission = %d %s, want 401", code, body)
	}

	ha := submit(t, base, alpha, envelope)
	resA := waitResult(t, base, alpha, ha.Handle)
	hb := submit(t, base, beta, envelope)
	if !hb.Cached {
		t.Fatalf("second tenant's identical submission was not cached: %+v", hb)
	}
	if resB := waitResult(t, base, beta, hb.Handle); !bytes.Equal(resA, resB) {
		t.Fatalf("tenants got different results for one envelope:\n%s\n%s", resA, resB)
	}

	high := submit(t, base, alpha, `{"kind":"equilibrium_sweep","seed":8,"priority":"high","spec":{"gen":{"Miners":5,"Coins":2},"games":50}}`)
	waitResult(t, base, alpha, high.Handle)

	throttled := 0
	for seed := 100; seed < 110; seed++ {
		env := fmt.Sprintf(`{"kind":"equilibrium_sweep","seed":%d,"spec":{"gen":{"Miners":4,"Coins":2},"games":10}}`, seed)
		code, hdr, body := call(t, http.MethodPost, base+"/v2/jobs", alpha, env)
		if code != http.StatusTooManyRequests {
			continue
		}
		throttled++
		if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
			t.Fatalf("429 with Retry-After %q: %s", hdr.Get("Retry-After"), body)
		}
	}
	if throttled == 0 {
		t.Fatal("ten back-to-back submissions at rate 3, burst 3 saw no 429")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestVersionFlag: -version prints the build identity — including the
// catalog fingerprint /healthz serves — and exits without serving (run
// returns immediately, no listener).
func TestVersionFlag(t *testing.T) {
	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- run(context.Background(), []string{"-version"}, &out) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run -version: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("-version did not exit")
	}
	if fp := engine.CatalogFingerprint(); !strings.Contains(out.String(), "catalog "+fp) {
		t.Fatalf("-version printed %q, want catalog fingerprint %s", out.String(), fp)
	}
}

// catalogFingerprint is the fingerprint of the built-in kinds@versions. It
// changes only with a deliberate change to the wire surface, together with
// testdata/specs.golden.json.
const catalogFingerprint = "6d58065a171b8c72"

// TestCatalogGolden pins the exact GET /v2/specs body this binary serves
// (it links only the built-in kinds), each GET /v2/specs/{wire} body under
// the entry's wire name and its pinned "kind@vN" form, and the fingerprint
// -version prints. Every entry is fetched twice, so a memoised body must
// match the first rendering. Regenerate the goldens only for a deliberate
// catalog change:
//
//	gocserve -addr 127.0.0.1:8372 & curl -s 127.0.0.1:8372/v2/specs > cmd/gocserve/testdata/specs.golden.json
//	for w in design_sweep design_sweep@v1 …; do printf 'GET /v2/specs/%s\n' $w; curl -s 127.0.0.1:8372/v2/specs/$w; done > cmd/gocserve/testdata/spec_entries.golden
func TestCatalogGolden(t *testing.T) {
	api := server.New(1)
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d\n%s", path, resp.StatusCode, body)
		}
		return body
	}
	golden := func(name string, got []byte) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("got %d bytes; want the %d bytes of testdata/%s\n%s", len(got), len(want), name, got)
		}
	}
	golden("specs.golden.json", get("/v2/specs"))
	for range 2 {
		var entries []byte
		for _, e := range engine.Catalog() {
			for _, wire := range slices.Compact([]string{e.Wire, engine.PinnedKind(e.Kind, e.Version)}) {
				path := "/v2/specs/" + wire
				entries = append(append(entries, "GET "+path+"\n"...), get(path)...)
			}
		}
		golden("spec_entries.golden", entries)
	}

	var out strings.Builder
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), " catalog "+catalogFingerprint+" ") {
		t.Fatalf("-version printed %q, want catalog %s", out.String(), catalogFingerprint)
	}
}
