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
	"strings"
	"testing"
	"time"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/server"
)

// TestServeAndGracefulShutdown boots the real server on an ephemeral port,
// checks liveness, then cancels the context and verifies a clean exit.
func TestServeAndGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", addr, "-workers", "2"}, io.Discard) }()

	// Wait for the listener.
	url := fmt.Sprintf("http://%s/healthz", addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			var body map[string]string
			_ = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if body["status"] != "ok" {
				t.Fatalf("healthz = %v", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

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
