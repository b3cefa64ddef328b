package main

import (
	"bytes"
	"io"
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
// output under -parallel 8 is byte-for-byte the sequential output.
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
}
