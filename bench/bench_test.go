package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"gameofcoins/internal/analysis"
	"gameofcoins/internal/engine"
)

// benchmarkFile reads the repository's BENCHMARK.json, one level up.
func benchmarkFile(t *testing.T) *BenchmarkFile {
	t.Helper()
	bf, err := ReadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsQuick runs every workload, traced, at test scale: each must
// finish with no failed op and emit exactly the metrics BENCHMARK.json
// declares, each with its declared unit.
func TestWorkloadsQuick(t *testing.T) {
	bf := benchmarkFile(t)
	want := map[string]string{}
	for _, m := range bf.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(Workloads()) {
		t.Fatalf("BENCHMARK.json declares %d workloads, gocperf runs %d", len(bf.Workloads), len(Workloads()))
	}
	for i, w := range Workloads() {
		if bf.Workloads[i].Name != w {
			t.Errorf("workload %d: BENCHMARK.json has %q, gocperf %q", i, bf.Workloads[i].Name, w)
		}
		t.Run(w, func(t *testing.T) {
			rep, err := Run(context.Background(), Config{
				Workload: w, Seed: 7, Seconds: 0.4, Trace: true, Quick: true, WorkDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
			}
			for name, unit := range want {
				v, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("metric %s not emitted", name)
				case v.Unit != unit:
					t.Errorf("metric %s in %s, declared %s", name, v.Unit, unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("metric %s = %v", name, v.Value)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("metric %s emitted but not declared", name)
				}
			}
		})
	}
}

// TestCatalogueMatchesBenchmarkFile checks that the metric catalogue —
// what gocperf emits and -list prints — and BENCHMARK.json agree on every
// name, unit, direction and bound, in order.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := benchmarkFile(t)
	e2e, layer := EndToEndMetrics(), PerLayerMetrics()
	if len(bf.EndToEnd) != len(e2e) || len(bf.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, catalogue has %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(e2e), len(layer))
	}
	for i, m := range bf.EndToEnd {
		c := e2e[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, m, c)
		}
	}
	for i, m := range bf.PerLayer {
		c := layer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, m, c)
		}
		if c.Layer == "" || c.Moves == "" || c.On == "" || !strings.HasPrefix(c.Name, c.Layer+".") {
			t.Errorf("per-layer %s lacks a layer or a prediction: %+v", c.Name, c)
		}
	}
	var list bytes.Buffer
	if err := WriteList(&list); err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(list.String(), "\n") {
		if name, rest, ok := strings.Cut(line, "\t"); ok && !strings.HasPrefix(name, "#") {
			lines[name] = rest
		}
	}
	for _, m := range append(e2e, layer...) {
		rest, ok := lines[m.Name]
		if !ok || !strings.HasPrefix(rest, m.Unit+"\t"+m.Better+"\t") {
			t.Errorf("-list line for %s = %q", m.Name, rest)
		}
	}
}

// TestCheckersRejectTampering shows the byte-identity checks fail on a
// tampered result body and on reordered, repeated, missing or altered
// stream documents.
func TestCheckersRejectTampering(t *testing.T) {
	want := []byte(`{"games":8,"multiple":3}`)
	if err := checkAggregate(json.RawMessage("{\n  \"games\": 8,\n  \"multiple\": 3\n}"), want); err != nil {
		t.Errorf("indented copy of the reference rejected: %v", err)
	}
	if err := checkAggregate(json.RawMessage(`{"games":8,"multiple":4}`), want); err == nil {
		t.Error("tampered result body accepted")
	}
	docs := []json.RawMessage{[]byte(`1`), []byte(`{"steps":2}`), []byte(`3`)}
	good := []taskDoc{{0, []byte(`1`)}, {1, []byte("{\n \"steps\": 2\n}")}, {2, []byte(`3`)}}
	if err := checkDocs(good, docs); err != nil {
		t.Errorf("in-order stream rejected: %v", err)
	}
	bad := map[string][]taskDoc{
		"reordered":  {good[1], good[0], good[2]},
		"repeated":   {good[0], good[0], good[1], good[2]},
		"missing":    {good[0], good[1]},
		"altered":    {good[0], {1, []byte(`{"steps":5}`)}, good[2]},
		"renumbered": {good[0], {2, good[1].doc}, good[2]},
	}
	for name, stream := range bad {
		if err := checkDocs(stream, docs); err == nil {
			t.Errorf("%s stream accepted", name)
		}
	}

	eq, learn := engine.EquilibriumSweep{}, engine.LearnSweep{}
	if err := checkKernel(eq, []byte(`2`), kernelSample{equilibria: 2}); err != nil {
		t.Errorf("matching Enumerate replay rejected: %v", err)
	}
	if err := checkKernel(eq, []byte(`2`), kernelSample{equilibria: 1}); err == nil {
		t.Error("Enumerate replay of another game accepted")
	}
	if err := checkKernel(learn, []byte(`{"steps":7,"converged":true}`), kernelSample{steps: 7, converged: true}); err != nil {
		t.Errorf("matching learning.Run replay rejected: %v", err)
	}
	if err := checkKernel(learn, []byte(`{"steps":7,"converged":true}`), kernelSample{steps: 9, converged: true}); err == nil {
		t.Error("learning.Run replay of another game accepted")
	}
}

// TestCompareFailsOnMissing shows that a workload or metric the base has
// and the change lacks fails the comparison instead of being skipped.
func TestCompareFailsOnMissing(t *testing.T) {
	bf := benchmarkFile(t)
	stat := func(v float64) Stat { return Stat{Median: v, Q1: v, Q3: v, Values: []float64{v, v}} }
	full := func() *WorkloadSummary {
		ws := &WorkloadSummary{Metrics: map[string]Stat{}}
		for _, m := range bf.EndToEnd {
			ws.Metrics[m.Name] = stat(1)
		}
		return ws
	}
	base := &Summary{Workloads: map[string]*WorkloadSummary{EqCold: full(), PersistStream: full()}}
	same := &Summary{Workloads: map[string]*WorkloadSummary{EqCold: full(), PersistStream: full()}}
	if failing, err := WriteVerdicts(io.Discard, Compare(base, same, bf)); err != nil || failing {
		t.Fatalf("identical summaries: failing %v, err %v", failing, err)
	}
	partial := full()
	delete(partial.Metrics, "ops_per_s")
	for name, change := range map[string]*Summary{
		"workload missing": {Workloads: map[string]*WorkloadSummary{EqCold: full()}},
		"metric missing":   {Workloads: map[string]*WorkloadSummary{EqCold: full(), PersistStream: partial}},
	} {
		vs := Compare(base, change, bf)
		if failing, _ := WriteVerdicts(io.Discard, vs); !failing {
			t.Errorf("%s: comparison passed: %+v", name, vs)
		}
	}
}

func TestQuantiles(t *testing.T) {
	v := make([]float64, 1001)
	for i := range v {
		v[i] = float64(i)
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, want := quantile(v, q), q*1000; math.Abs(got-want) > 0.5 {
			t.Errorf("quantile(0..1000, %v) = %v, want about %v", q, got, want)
		}
	}
	// Python: statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25].
	q1, med, q3, err := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil || q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v %v, want 2.75 5.5 8.25", q1, med, q3, err)
	}
}

// TestGoclintClean holds the benchmark to the repository's static rules,
// as TestSelfClean does for the main module.
func TestGoclintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module")
	}
	pkgs, err := analysis.LoadPackages(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 2 {
		t.Fatalf("loaded only %d packages", len(pkgs))
	}
	diags, err := analysis.Lint(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("goclint finding: %s", d)
	}
}
