package trace

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesAddLen(t *testing.T) {
	s := NewSeries("hashrate")
	if s.Len() != 0 {
		t.Fatal("new series not empty")
	}
	s.Add(0, 1)
	s.Add(1, 2)
	if s.Len() != 2 || s.Name != "hashrate" {
		t.Fatalf("series state wrong: %+v", s)
	}
}

func TestSeriesYAt(t *testing.T) {
	s := NewSeries("s")
	s.Add(0, 10)
	s.Add(5, 20)
	s.Add(10, 30)
	tests := []struct{ x, want float64 }{
		{0, 10}, {4.9, 10}, {5, 20}, {7, 20}, {10, 30}, {100, 30},
	}
	for _, tt := range tests {
		if got := s.YAt(tt.x); got != tt.want {
			t.Errorf("YAt(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if !math.IsNaN(s.YAt(-1)) {
		t.Error("YAt before first x should be NaN")
	}
}

func TestWriteCSVSharedAxis(t *testing.T) {
	a := NewSeries("a")
	a.Add(0, 1)
	a.Add(2, 3)
	b := NewSeries("b")
	b.Add(0, 5)
	b.Add(1, 6)
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "x,a,b\n0,1,5\n1,,6\n2,3,\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestPlotBasicShape(t *testing.T) {
	s := NewSeries("line")
	for i := 0; i <= 10; i++ {
		s.Add(float64(i), float64(i))
	}
	out := Plot(PlotOptions{Width: 20, Height: 5, Title: "T"}, s)
	if !strings.Contains(out, "T\n") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "line") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("glyph missing")
	}
	lines := strings.Split(out, "\n")
	// First plot row should contain the max-y label "10".
	if !strings.Contains(lines[1], "10") {
		t.Errorf("max label missing in %q", lines[1])
	}
}

func TestPlotEmpty(t *testing.T) {
	if out := Plot(PlotOptions{}, NewSeries("empty")); out != "" {
		t.Fatalf("empty plot should be empty string, got %q", out)
	}
}

func TestPlotSkipsNaN(t *testing.T) {
	s := NewSeries("s")
	s.Add(0, math.NaN())
	s.Add(1, 1)
	s.Add(2, 2)
	out := Plot(PlotOptions{Width: 10, Height: 4}, s)
	if out == "" {
		t.Fatal("plot with some valid points should render")
	}
}

func TestPlotConstantSeries(t *testing.T) {
	s := NewSeries("flat")
	s.Add(0, 5)
	s.Add(1, 5)
	out := Plot(PlotOptions{Width: 10, Height: 4}, s)
	if out == "" {
		t.Fatal("constant series should still render")
	}
}

func TestPlotMultipleSeriesGlyphs(t *testing.T) {
	a := NewSeries("a")
	a.Add(0, 0)
	a.Add(1, 1)
	b := NewSeries("b")
	b.Add(0, 1)
	b.Add(1, 0)
	out := Plot(PlotOptions{Width: 10, Height: 4}, a, b)
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("expected two glyphs in plot:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta-long-name", 22)
	out := tb.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "beta-long-name") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	// All lines should align: header width == separator width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("misaligned header/separator:\n%s", out)
	}
}
