package experiments

import (
	"context"
	"fmt"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
)

// suiteEntry pairs an experiment ID with its runner so callers can select a
// subset before any experiment executes.
type suiteEntry struct {
	id string
	fn func() *Report
}

// suite enumerates the experiment functions in report order. Every
// experiment builds its own rng from the seed and touches no shared state,
// so the suite is embarrassingly parallel and — crucially — its reports are
// byte-identical whether run sequentially (Selected) or fanned across
// workers (SelectedParallel).
func suite(seed uint64) []suiteEntry {
	return []suiteEntry{
		{"E1", func() *Report { return E1(seed) }},
		{"E2", func() *Report { return E2(seed) }},
		{"E3", func() *Report { return E3() }},
		{"E4", func() *Report { return E4(seed) }},
		{"E5", func() *Report { return E5(seed) }},
		{"E6", func() *Report { return E6(seed) }},
		{"E7", func() *Report { return E7(seed) }},
		{"E8", func() *Report { return E8(seed) }},
		{"E9", func() *Report { return E9(seed) }},
		{"E10", func() *Report { return E10(seed) }},
		{"E11", func() *Report { return E11(seed) }},
		{"E12", func() *Report { return E12(seed) }},
		{"E13", func() *Report { return E13(seed) }},
	}
}

// selectEntries keeps the suite entries whose ID is in only (suite order);
// a nil or empty filter selects everything. Unknown IDs select nothing.
func selectEntries(seed uint64, only map[string]bool) []suiteEntry {
	entries := suite(seed)
	if len(only) == 0 {
		return entries
	}
	var kept []suiteEntry
	for _, e := range entries {
		if only[e.id] {
			kept = append(kept, e)
		}
	}
	return kept
}

// Selected runs the experiments whose IDs are in only (nil/empty = all)
// sequentially and returns the reports in suite order.
func Selected(seed uint64, only map[string]bool) []*Report {
	entries := selectEntries(seed, only)
	reports := make([]*Report, len(entries))
	for i, e := range entries {
		reports[i] = e.fn()
	}
	return reports
}

// SelectedParallel runs the experiments whose IDs are in only (nil/empty =
// all) across the given number of workers via the concurrent experiment
// engine, returning reports in suite order. The reports are identical to
// Selected's; only wall-clock time changes.
func SelectedParallel(ctx context.Context, seed uint64, workers int, only map[string]bool) ([]*Report, error) {
	entries := selectEntries(seed, only)
	spec := engine.Func{
		Name: "experiment_suite",
		N:    len(entries),
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) {
			return entries[i].fn(), nil
		},
	}
	res, err := engine.New(workers).Run(ctx, spec, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	raw := res.([]any)
	reports := make([]*Report, len(raw))
	for i, r := range raw {
		reports[i] = r.(*Report)
	}
	return reports, nil
}
