// Package experiments implements the E1–E13 experiment suite indexed in
// DESIGN.md §6: one function per paper artifact (figure, proposition, theorem,
// or discussion follow-up), each returning a Report with the table/series
// the paper-shaped output needs. cmd/gocbench renders reports to the
// terminal; bench_test.go wraps them in testing.B benchmarks; EXPERIMENTS.md
// records the measured shapes against the paper's claims.
package experiments

import (
	"fmt"
	"strings"

	"gameofcoins/internal/trace"
)

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	// Claim is the paper statement under test.
	Claim string
	// Table is the primary tabular result (may be nil).
	Table *trace.Table
	// Plots are pre-rendered ASCII charts.
	Plots []string
	// Notes carry measured-vs-expected commentary for EXPERIMENTS.md.
	Notes []string
	// Pass reports whether the measured shape matches the paper's claim.
	Pass bool
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "claim: %s\n\n", r.Claim)
	if r.Table != nil {
		b.WriteString(r.Table.String())
		b.WriteByte('\n')
	}
	for _, p := range r.Plots {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
