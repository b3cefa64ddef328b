package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gameofcoins/internal/engine"
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
