package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// BenchmarkFile is the shape of the repository's BENCHMARK.json.
type BenchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// ReadBenchmarkFile reads and decodes BENCHMARK.json, rejecting unknown
// keys.
func ReadBenchmarkFile(path string) (*BenchmarkFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var bf BenchmarkFile
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// Stat summarises one metric over a set of runs.
type Stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// Spread is the interquartile distance as a share of the median.
func (s Stat) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// WorkloadSummary summarises one workload's runs.
type WorkloadSummary struct {
	Seeds     []uint64        `json:"seeds"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]Stat `json:"metrics"`
}

// Summary is the median and quartiles of every metric × workload over a
// set of runs, with the machine they ran on.
type Summary struct {
	Nproc     int                         `json:"nproc"`
	Procs     int                         `json:"gomaxprocs"`
	Go        string                      `json:"go"`
	CPU       string                      `json:"cpu"`
	Seconds   float64                     `json:"seconds"`
	Clients   int                         `json:"clients"`
	Workers   int                         `json:"workers"`
	Workloads map[string]*WorkloadSummary `json:"workloads"`
}

// Summarize folds run reports into a summary. Each metric's statistics
// cover the runs that reported it (per-layer metrics come from traced
// runs only); a metric needs two runs to have quartiles.
func Summarize(reports []*Report, cpu string) (*Summary, error) {
	s := &Summary{CPU: cpu, Workloads: map[string]*WorkloadSummary{}}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, rep := range reports {
		s.Nproc, s.Procs, s.Go, s.Clients, s.Workers, s.Seconds = rep.Nproc, rep.Procs, rep.Go, rep.Clients, rep.Workers, rep.Seconds
		ws := s.Workloads[rep.Workload]
		if ws == nil {
			ws = &WorkloadSummary{Metrics: map[string]Stat{}}
			s.Workloads[rep.Workload] = ws
			values[rep.Workload] = map[string][]float64{}
		}
		ws.Seeds = append(ws.Seeds, rep.Seed)
		ws.Attempted += rep.Attempted
		ws.Failed += rep.Failed
		for _, m := range append(EndToEndMetrics(), PerLayerMetrics()...) {
			v, ok := rep.Metrics[m.Name]
			if !ok || (rep.Traced && m.EndToEnd()) {
				continue // a traced run's end-to-end numbers share the machine with its traced phase
			}
			values[rep.Workload][m.Name] = append(values[rep.Workload][m.Name], v.Value)
			units[m.Name] = v.Unit
		}
	}
	for w, byName := range values {
		for name, v := range byName {
			st := Stat{Unit: units[name], Values: v}
			if len(v) >= 2 {
				q1, med, q3, err := quartiles(v)
				if err != nil {
					return nil, err
				}
				st.Q1, st.Median, st.Q3 = q1, med, q3
			} else {
				st.Q1, st.Median, st.Q3 = v[0], v[0], v[0]
			}
			s.Workloads[w].Metrics[name] = st
		}
	}
	return s, nil
}

// Verdict is the outcome of comparing one metric on one workload.
type Verdict struct {
	Workload, Metric string
	Base, Change     float64 // medians
	Worse            float64 // share by which Change is worse than Base (negative: better)
	Spread, Bound    float64
	Status           string // "ok", "regression", "unresolved" or "missing"
}

// Failing reports whether the verdict fails a comparison: a regression, or
// a number the change did not produce.
func (v Verdict) Failing() bool { return v.Status == "regression" || v.Status == "missing" }

// Compare applies BENCHMARK.json's bounds to two summaries: for every
// end-to-end metric on every workload of Base, Change's median may be
// worse than Base's by at most the bound. A workload or metric Base has
// and Change lacks is missing, which fails like a regression: a run that
// produced no report must not read as ok. Where Base's own spread is wider
// than the bound the pair is unresolved, unless every run of Change reads
// better than every run of Base.
func Compare(base, change *Summary, bf *BenchmarkFile) []Verdict {
	var out []Verdict
	var names []string
	for w := range base.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		cw := change.Workloads[w]
		for _, m := range bf.EndToEnd {
			a, aok := base.Workloads[w].Metrics[m.Name]
			if !aok {
				continue
			}
			v := Verdict{Workload: w, Metric: m.Name, Base: a.Median, Spread: a.Spread(), Bound: m.Bound}
			var b Stat
			bok := false
			if cw != nil {
				b, bok = cw.Metrics[m.Name]
			}
			if !bok {
				v.Status = "missing"
				out = append(out, v)
				continue
			}
			v.Change = b.Median
			if a.Median != 0 {
				v.Worse = (b.Median - a.Median) / a.Median
			}
			if m.Better == "higher" {
				v.Worse = -v.Worse
			}
			switch {
			case a.Median == 0 || (v.Spread > m.Bound && !allBetter(a.Values, b.Values, m.Better)):
				v.Status = "unresolved"
			case v.Worse > m.Bound:
				v.Status = "regression"
			default:
				v.Status = "ok"
			}
			out = append(out, v)
		}
		if cw != nil && cw.Failed > 0 {
			out = append(out, Verdict{Workload: w, Metric: "failed", Change: float64(cw.Failed), Status: "regression"})
		}
	}
	return out
}

func allBetter(base, change []float64, better string) bool {
	for _, a := range base {
		for _, b := range change {
			if (better == "higher" && b <= a) || (better != "higher" && b >= a) {
				return false
			}
		}
	}
	return true
}

// WriteVerdicts prints a comparison table and reports whether any pair
// failed.
func WriteVerdicts(w io.Writer, vs []Verdict) (failing bool, err error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-22s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "base", "change", "worse", "spread", "bound", "status")
	for _, v := range vs {
		fmt.Fprintf(&b, "%-15s %-22s %12.4g %12.4g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			v.Workload, v.Metric, v.Base, v.Change, 100*v.Worse, 100*v.Spread, 100*v.Bound, v.Status)
		failing = failing || v.Failing()
	}
	_, err = io.WriteString(w, b.String())
	return failing, err
}

// ReadJSON decodes a JSON file into v.
func ReadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// WriteJSON encodes v, indented, into a file.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
