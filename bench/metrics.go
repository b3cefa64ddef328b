// Package bench is the engine behind gocperf, the repository's end-to-end
// benchmark. One run starts gocserve in-process behind a loopback HTTP
// listener, drives one of two workloads built from the paper's two sweep
// kinds through the client SDK, checks every result it can against a reference,
// and reports end-to-end metrics from an untraced timed phase and per-layer
// metrics from a separate traced phase.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Metric is one number gocperf reports. The catalogue below is the single
// source of metric names and units; BENCHMARK.json must declare exactly
// these (the package test checks it).
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have no bound.
	Bound float64
	// Layer is the module a per-layer metric measures; empty for
	// end-to-end metrics.
	Layer string
	// Moves names the end-to-end metrics a change in this per-layer metric
	// is predicted to move, and On the workloads where it should move them.
	// Everywhere else the prediction is no change.
	Moves string
	On    string
}

// EndToEnd reports whether m is an end-to-end metric.
func (m Metric) EndToEnd() bool { return m.Layer == "" }

// Tails are p99. On a shared machine the process's one thread shares its
// CPU part of the time, and ops in those stretches take about 1.5 times as
// long. That slow plateau held 3–15% of eq-cold's ops, varying from run to
// run, so p90 and p95 jumped between the fast mode and the plateau (quartile
// spread over eight runs 27%), while p99 stays on the plateau (16%). On a
// quieter host p99 sat at the edge of short bursts instead, so eq-cold's
// ops are one size in 19 of 20 and three times larger in the 20th, and its
// p99 falls inside the large jobs (bigEvery). Both workloads complete
// over 1300 ops in 15 s, so more than ten lie beyond p99. Bounds should
// hold the run-to-run spread of fresh processes.
// On a quiet host ten runs of a time or rate metric spread 1–3%; while
// other tenants load the host, the whole machine drifts by up to a third
// over minutes, so those get the maximum, 25%. The heap per job does not
// depend on speed (spread under 2%) and gets 15%.
var endToEnd = []Metric{
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_result_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_result_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_kb_per_job", Unit: "KB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	movesKernel = "cpu_ms_per_op, latency_p50_ms, latency_p99_ms, ops_per_s"
	movesFirst  = "first_result_p50_ms, first_result_p99_ms"
	movesServe  = "cpu_ms_per_op, latency_p50_ms, ops_per_s"
	both        = EqCold + ", " + PersistStream
)

var perLayer = []Metric{
	{Name: "equilibria.enumerate_p50_us", Unit: "us", Layer: "equilibria", Moves: movesKernel, On: EqCold},
	{Name: "equilibria.enumerate_p99_us", Unit: "us", Layer: "equilibria", Moves: movesKernel, On: EqCold},
	{Name: "equilibria.configs_per_task", Unit: "count", Layer: "equilibria", Moves: movesKernel, On: EqCold},
	{Name: "equilibria.ns_per_config", Unit: "ns", Layer: "equilibria", Moves: movesKernel, On: EqCold},
	{Name: "runtime.allocs_per_op", Unit: "count", Layer: "runtime", Moves: movesKernel, On: both},
	{Name: "runtime.gc_cpu_share", Unit: "fraction", Layer: "runtime", Moves: movesKernel, On: both},
	{Name: "learning.run_p50_us", Unit: "us", Layer: "learning", Moves: "cpu_ms_per_op", On: PersistStream},
	{Name: "learning.run_p99_us", Unit: "us", Layer: "learning", Moves: "cpu_ms_per_op", On: PersistStream},
	{Name: "learning.steps_per_task", Unit: "count", Layer: "learning", Moves: "cpu_ms_per_op", On: PersistStream},
	{Name: "learning.ns_per_step", Unit: "ns", Layer: "learning", Moves: "cpu_ms_per_op", On: PersistStream},
	{Name: "engine.task_p50_us", Unit: "us", Layer: "engine", Moves: "cpu_ms_per_op", On: both},
	{Name: "engine.task_p99_us", Unit: "us", Layer: "engine", Moves: "cpu_ms_per_op", On: both},
	{Name: "engine.encode_p50_us", Unit: "us", Layer: "engine", Moves: "cpu_ms_per_op", On: both},
	{Name: "engine.aggregate_p50_us", Unit: "us", Layer: "engine", Moves: "cpu_ms_per_op", On: both},
	{Name: "engine.compute_share", Unit: "fraction", Better: "higher", Layer: "engine", Moves: "cpu_ms_per_op", On: both},
	{Name: "engine.queue_wait_p50_ms", Unit: "ms", Layer: "engine", Moves: movesFirst, On: PersistStream},
	{Name: "engine.queue_wait_p99_ms", Unit: "ms", Layer: "engine", Moves: movesFirst, On: PersistStream},
	{Name: "engine.resolve_p50_us", Unit: "us", Layer: "engine", Moves: movesServe, On: PersistStream},
	{Name: "engine.cache_key_p50_us", Unit: "us", Layer: "engine", Moves: movesServe, On: PersistStream},
	{Name: "server.submit_p50_us", Unit: "us", Layer: "server", Moves: movesServe, On: PersistStream},
	{Name: "server.submit_p99_us", Unit: "us", Layer: "server", Moves: "latency_p99_ms", On: PersistStream},
	{Name: "server.result_p50_us", Unit: "us", Layer: "server", Moves: movesServe, On: PersistStream},
	{Name: "server.result_p99_us", Unit: "us", Layer: "server", Moves: "latency_p99_ms", On: PersistStream},
	{Name: "server.release_p50_us", Unit: "us", Layer: "server", Moves: "cpu_ms_per_op, ops_per_s", On: PersistStream},
	{Name: "server.release_p99_us", Unit: "us", Layer: "server", Moves: "cpu_ms_per_op, ops_per_s", On: PersistStream},
	{Name: "server.range_p50_us", Unit: "us", Layer: "server", Moves: movesFirst + ", cpu_ms_per_op", On: PersistStream},
	{Name: "server.range_p99_us", Unit: "us", Layer: "server", Moves: movesFirst + ", cpu_ms_per_op", On: PersistStream},
	{Name: "server.requests_per_op", Unit: "count", Layer: "server", Moves: movesFirst + ", cpu_ms_per_op", On: PersistStream},
	{Name: "server.range_fetches_per_op", Unit: "count", Layer: "server", Moves: movesFirst + ", cpu_ms_per_op", On: PersistStream},
	{Name: "server.sse_events_per_op", Unit: "count", Layer: "server", Moves: movesFirst + ", cpu_ms_per_op", On: PersistStream},
	{Name: "client.rtt_overhead_p50_us", Unit: "us", Layer: "client", Moves: "latency_p50_ms, latency_p99_ms", On: PersistStream},
	{Name: "client.rtt_overhead_p99_us", Unit: "us", Layer: "client", Moves: "latency_p50_ms, latency_p99_ms", On: PersistStream},
	{Name: "traffic.auth_p50_us", Unit: "us", Layer: "traffic", Moves: movesServe, On: PersistStream},
	{Name: "traffic.admit_p50_us", Unit: "us", Layer: "traffic", Moves: movesServe, On: PersistStream},
	{Name: "traffic.throttled", Unit: "count", Layer: "traffic", Moves: "failed (must stay 0)", On: both},
	{Name: "store.put_job_p50_us", Unit: "us", Layer: "store", Moves: "cpu_ms_per_op, latency_p99_ms", On: PersistStream},
	{Name: "store.put_job_p99_us", Unit: "us", Layer: "store", Moves: "cpu_ms_per_op, latency_p99_ms", On: PersistStream},
	{Name: "store.put_range_p50_us", Unit: "us", Layer: "store", Moves: "cpu_ms_per_op, latency_p99_ms", On: PersistStream},
	{Name: "store.put_range_p99_us", Unit: "us", Layer: "store", Moves: "cpu_ms_per_op, latency_p99_ms", On: PersistStream},
	{Name: "store.load_ms", Unit: "ms", Layer: "store", Moves: "setup_s", On: PersistStream},
	{Name: "store.log_bytes_per_job", Unit: "bytes", Layer: "store", Moves: "cpu_ms_per_op", On: PersistStream},
	{Name: "store.persist_failures", Unit: "count", Layer: "store", Moves: "failed (must stay 0)", On: PersistStream},
	{Name: "trace.overhead", Unit: "fraction", Layer: "trace", Moves: "none: the cost of tracing itself", On: "all"},
}

func init() {
	for i := range perLayer {
		if perLayer[i].Better == "" {
			perLayer[i].Better = "lower"
		}
	}
}

// EndToEndMetrics returns the end-to-end metrics in report order.
func EndToEndMetrics() []Metric { return append([]Metric(nil), endToEnd...) }

// PerLayerMetrics returns the per-layer metrics in report order.
func PerLayerMetrics() []Metric { return append([]Metric(nil), perLayer...) }

// lookupMetric finds a catalogued metric by name.
func lookupMetric(name string) (Metric, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// WriteList prints the catalogue: every end-to-end metric with its unit,
// direction and bound, then every per-layer metric with its unit, layer,
// and the end-to-end metrics and workloads it is predicted to move. Fields
// are tab-separated so the listing is machine-readable.
func WriteList(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# end-to-end: name\tunit\tbetter\tbound\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "%s\t%s\t%s\t%g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	b.WriteString("# per-layer: name\tunit\tbetter\tlayer\tmoves\ton\n")
	for _, m := range perLayer {
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, m.Layer, m.Moves, m.On)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
