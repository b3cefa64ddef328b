package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary wrong: %+v", s)
	}
	want := math.Sqrt(2.5) // sample variance of 1..5 is 2.5
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single-element summary = %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	out := Summarize([]float64{1, 2, 3}).String()
	if !strings.Contains(out, "n=3") || !strings.Contains(out, "mean=2") {
		t.Fatalf("summary string %q missing fields", out)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20},
		{-0.5, 10}, {1.5, 40}, // clamped
	}
	for _, tt := range tests {
		if got := quantileSorted(xs, tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("quantileSorted(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Correlation(xs, []float64{2, 4, 6, 8}); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %v", got)
	}
	if got := Correlation(xs, []float64{8, 6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %v", got)
	}
	if !math.IsNaN(Correlation(xs, []float64{5, 5, 5, 5})) {
		t.Error("zero-variance correlation should be NaN")
	}
	if !math.IsNaN(Correlation(xs, []float64{1})) {
		t.Error("mismatched lengths should be NaN")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := LinearFit(xs, ys)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	s, i := LinearFit([]float64{1, 1}, []float64{2, 3})
	if !math.IsNaN(s) || !math.IsNaN(i) {
		t.Fatal("degenerate x should give NaN fit")
	}
}

func TestMeanPropertyBounded(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return Mean(clean) == 0
		}
		m := Mean(clean)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range clean {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := raw[:0:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 := float64(a%101) / 100
		q2 := float64(b%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		sort.Float64s(xs)
		return quantileSorted(xs, q1) <= quantileSorted(xs, q2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
