package bench

import (
	"bytes"
	"encoding/json"
	"fmt"

	"gameofcoins/internal/engine"
)

// checkAggregate compares a served aggregate document with the expected
// encoding. The server indents its responses; the engine encodes results
// compactly, so the served bytes are compacted before the byte comparison.
func checkAggregate(served json.RawMessage, want []byte) error {
	got, err := compact(served)
	if err != nil {
		return fmt.Errorf("served result is not JSON: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served result %s differs from reference %s", clip(got), clip(want))
	}
	return nil
}

// checkDocs checks that a client received every per-task document exactly
// once, in task order, and byte-identical to the expected encodings.
func checkDocs(got []taskDoc, want []json.RawMessage) error {
	if len(got) != len(want) {
		return fmt.Errorf("received %d task documents, want %d", len(got), len(want))
	}
	for i, d := range got {
		if d.task != i {
			return fmt.Errorf("document %d is for task %d: out of order or repeated", i, d.task)
		}
		doc, err := compact(d.doc)
		if err != nil {
			return fmt.Errorf("task %d document is not JSON: %w", i, err)
		}
		if !bytes.Equal(doc, want[i]) {
			return fmt.Errorf("task %d document %s differs from replay %s", i, clip(doc), clip(want[i]))
		}
	}
	return nil
}

// checkKernel compares a kernel replay of one task with the document the
// engine served for that task: the equilibrium count on equilibrium
// sweeps, steps and convergence on learn sweeps. A replay that drew a
// different game or scheduler than the sweep's RunTask fails here instead
// of timing other games under the same metric names.
func checkKernel(spec engine.Spec, doc json.RawMessage, ks kernelSample) error {
	switch spec.(type) {
	case engine.EquilibriumSweep:
		var n int
		if err := json.Unmarshal(doc, &n); err != nil {
			return fmt.Errorf("task document %s: %w", clip(doc), err)
		}
		if n != ks.equilibria {
			return fmt.Errorf("engine served %d equilibria, Enumerate replay found %d", n, ks.equilibria)
		}
	case engine.LearnSweep:
		var d struct {
			Steps     int  `json:"steps"`
			Converged bool `json:"converged"`
		}
		if err := json.Unmarshal(doc, &d); err != nil {
			return fmt.Errorf("task document %s: %w", clip(doc), err)
		}
		if d.Steps != ks.steps || d.Converged != ks.converged {
			return fmt.Errorf("engine served steps %d converged %v, learning.Run replay gave steps %d converged %v",
				d.Steps, d.Converged, ks.steps, ks.converged)
		}
	default:
		return fmt.Errorf("no kernel check for %s", spec.Kind())
	}
	return nil
}

// clip renders a document for a failure message: compacted when it is
// JSON, and cut to 120 bytes.
func clip(b []byte) string {
	if c, err := compact(b); err == nil {
		b = c
	}
	if len(b) > 120 {
		return string(b[:120]) + "..."
	}
	return string(b)
}

// compact returns the compact form of a served JSON document, which is how
// the engine itself encodes results and task documents.
func compact(raw []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
