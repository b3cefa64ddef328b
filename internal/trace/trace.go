// Package trace records experiment output: named time series, tabular data,
// CSV emission, and ASCII line plots.
//
// Because the reproduction cannot rely on a plotting ecosystem, every figure
// in EXPERIMENTS.md is rendered twice: as machine-readable CSV (for external
// plotting) and as an ASCII chart (for eyeballing the shape in a terminal).
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Series is a named sequence of (x, y) points, appended in x order by the
// producer. It is not safe for concurrent use.
type Series struct {
	Name string
	Xs   []float64
	Ys   []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series {
	return &Series{Name: name}
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Xs) }

// YAt returns the y value of the last point with Xs <= x, or NaN if none.
// Series are append-ordered by x, so this is a binary search.
func (s *Series) YAt(x float64) float64 {
	i := sort.SearchFloat64s(s.Xs, x)
	if i < len(s.Xs) && s.Xs[i] == x {
		return s.Ys[i]
	}
	if i == 0 {
		return math.NaN()
	}
	return s.Ys[i-1]
}

// WriteCSV writes one or more series sharing an x column to w. Series are
// sampled at the union of their x values; missing values are left empty.
func WriteCSV(w io.Writer, series ...*Series) error {
	// Union of x values.
	xset := map[float64]struct{}{}
	for _, s := range series {
		for _, x := range s.Xs {
			xset[x] = struct{}{}
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	header := make([]string, 0, len(series)+1)
	header = append(header, "x")
	for _, s := range series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	// Index each series for exact-x lookup.
	idx := make([]map[float64]float64, len(series))
	for i, s := range series {
		m := make(map[float64]float64, len(s.Xs))
		for j, x := range s.Xs {
			m[x] = s.Ys[j]
		}
		idx[i] = m
	}
	row := make([]string, len(series)+1)
	for _, x := range xs {
		row[0] = strconv.FormatFloat(x, 'g', -1, 64)
		for i := range series {
			if y, ok := idx[i][x]; ok {
				row[i+1] = strconv.FormatFloat(y, 'g', -1, 64)
			} else {
				row[i+1] = ""
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// plotGlyphs distinguish overlaid series in ASCII plots.
var plotGlyphs = []byte{'*', '+', 'o', 'x', '#', '@'}

// PlotOptions configure ASCII rendering.
type PlotOptions struct {
	Width  int // plot area columns (default 72)
	Height int // plot area rows (default 18)
	Title  string
}

// Plot renders the series as an ASCII chart. Each series uses a distinct
// glyph; a legend is appended. Empty input yields an empty string.
func Plot(opt PlotOptions, series ...*Series) string {
	if opt.Width <= 0 {
		opt.Width = 72
	}
	if opt.Height <= 0 {
		opt.Height = 18
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		for i := range s.Xs {
			if math.IsNaN(s.Ys[i]) || math.IsInf(s.Ys[i], 0) {
				continue
			}
			points++
			minX = math.Min(minX, s.Xs[i])
			maxX = math.Max(maxX, s.Xs[i])
			minY = math.Min(minY, s.Ys[i])
			maxY = math.Max(maxY, s.Ys[i])
		}
	}
	if points == 0 {
		return ""
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, opt.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", opt.Width))
	}
	for si, s := range series {
		glyph := plotGlyphs[si%len(plotGlyphs)]
		for i := range s.Xs {
			y := s.Ys[i]
			if math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			col := int((s.Xs[i] - minX) / (maxX - minX) * float64(opt.Width-1))
			row := opt.Height - 1 - int((y-minY)/(maxY-minY)*float64(opt.Height-1))
			grid[row][col] = glyph
		}
	}
	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	for r, line := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%10.4g", maxY)
		case opt.Height - 1:
			label = fmt.Sprintf("%10.4g", minY)
		default:
			label = strings.Repeat(" ", 10)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(line))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 10), strings.Repeat("-", opt.Width))
	fmt.Fprintf(&b, "%s  %-10.4g%*s\n", strings.Repeat(" ", 10), minX, opt.Width-10, fmt.Sprintf("%.4g", maxX))
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", plotGlyphs[si%len(plotGlyphs)], s.Name)
	}
	return b.String()
}

// Table accumulates rows for an aligned text table (experiment output).
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = strconv.FormatFloat(x, 'g', 6, 64)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
