package main

import (
	"bufio"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gameofcoins/internal/server"
	"gameofcoins/internal/store"
)

// TestResumeAcrossServerRestart: a -pause-after run persists a prefix to the
// ledger, the server is torn down and replaced by a fresh instance over the
// same store, and the -resume rerun completes the download — with the full
// span byte-identical to a cold ?range fetch (run verifies that internally).
func TestResumeAcrossServerRestart(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ledger := filepath.Join(t.TempDir(), "tasks.jsonl")

	start := func() (*server.Server, *httptest.Server) {
		t.Helper()
		s, err := server.NewWithOptions(4, server.Options{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s)
	}

	s1, ts1 := start()
	var out strings.Builder
	err = run([]string{
		"-server", ts1.URL, "-games", "40", "-seed", "3",
		"-resume", ledger, "-pause-after", "10", "-timeout", "30s",
	}, &out)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if !strings.Contains(out.String(), "paused") {
		t.Fatalf("first run did not pause: %q", out.String())
	}
	if n := ledgerLines(t, ledger); n < 10 || n >= 40 {
		t.Fatalf("ledger holds %d lines after pause, want [10,40)", n)
	}

	// Restart: new server instance, same store. The rerun resumes after the
	// persisted prefix and must finish the remaining tasks.
	ts1.Close()
	s1.Close()
	s2, ts2 := start()
	defer ts2.Close()
	defer s2.Close()

	out.Reset()
	err = run([]string{
		"-server", ts2.URL, "-games", "40", "-seed", "3",
		"-resume", ledger, "-timeout", "60s",
	}, &out)
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !strings.Contains(out.String(), "stream check OK") {
		t.Fatalf("resume run output: %q", out.String())
	}
	if n := ledgerLines(t, ledger); n != 40 {
		t.Fatalf("ledger holds %d lines after resume, want 40", n)
	}

	// A third run over the complete ledger is a no-op stream (0 new tasks)
	// that still verifies the whole span against ?range.
	out.Reset()
	if err := run([]string{
		"-server", ts2.URL, "-games", "40", "-seed", "3",
		"-resume", ledger, "-timeout", "30s",
	}, &out); err != nil {
		t.Fatalf("verify run: %v", err)
	}
	if !strings.Contains(out.String(), "40 resumed + 0 streamed") {
		t.Fatalf("verify run output: %q", out.String())
	}
}

func ledgerLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) > 0 {
			n++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}
