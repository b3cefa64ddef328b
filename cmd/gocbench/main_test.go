package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run(io.Discard, []string{"-seed", "11", "-run", "E3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownIDIsNoop(t *testing.T) {
	// Filtering to a non-existent ID runs nothing and therefore fails
	// nothing.
	if err := run(io.Discard, []string{"-run", "E99"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run(io.Discard, []string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestParallelOutputByteIdentical is the engine's end-to-end reproducibility
// guarantee on the paper-reproduction path itself: the full experiment
// output under -parallel 8 is byte-for-byte the sequential output, and the
// sequential output is byte-for-byte testdata/seed11.golden, so a change
// that shifts both alike fails too. Regenerate the golden only when E1–E13
// results change on purpose:
//
//	go run ./cmd/gocbench -seed 11 > cmd/gocbench/testdata/seed11.golden
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	var seq, par bytes.Buffer
	if err := run(&seq, []string{"-seed", "11"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&par, []string{"-seed", "11", "-parallel", "8"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel output differs from sequential (%d vs %d bytes)", seq.Len(), par.Len())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "seed11.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), golden) {
		line := 1 + bytes.Count(golden[:firstDiff(seq.Bytes(), golden)], []byte("\n"))
		t.Fatalf("output differs from testdata/seed11.golden from line %d (%d vs %d bytes)", line, seq.Len(), len(golden))
	}
}

// firstDiff returns the index of the first byte where a and b differ, or the
// shorter length when one is a prefix of the other.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
