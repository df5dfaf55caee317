// Package report provides the experiment-harness utilities shared by the
// cmd/ tools and benchmarks: repeated measurements with 25/75 percentile
// quantiles (the paper's micro-benchmark methodology, §8.1: "we conduct
// five experiments with newly generated data, while running each one for
// ten times ... we state the 25 and 75 percentage quantiles"), the sweep
// document and its aligned-table, CSV and JSON renderings, and
// power-of-two parameter sweeps.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// Sample holds repeated measurements of one configuration.
type Sample struct {
	values []float64
}

// Add records one measurement.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N returns the number of measurements.
func (s *Sample) N() int { return len(s.values) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by linear interpolation.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		panic("report: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic("report: quantile out of range")
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// IQR returns the 25th and 75th percentiles, the error bars of Figure 3.
func (s *Sample) IQR() (q25, q75 float64) {
	return s.Quantile(0.25), s.Quantile(0.75)
}

// Table accumulates rows and prints them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRowRaw appends pre-formatted cells.
func (t *Table) AddRowRaw(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Fprint writes the aligned table.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if w := utf8.RuneCountInString(c); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		return b.String()
	}
	fmt.Fprintln(w, line(t.header))
	fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths)))
	for _, row := range t.rows {
		fmt.Fprintln(w, line(row))
	}
}

func lineWidth(widths []int) int {
	total := 0
	for _, w := range widths {
		total += w
	}
	return total + 2*(len(widths)-1)
}

// WriteCSV writes the table as CSV (no quoting; cells must not contain
// commas — ours never do).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.header, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Emit writes the table as CSV when csv is set, as an aligned table
// otherwise — the shared output switch of the cmd tools.
func (t *Table) Emit(w io.Writer, csv bool) error {
	if csv {
		return t.WriteCSV(w)
	}
	t.Fprint(w)
	return nil
}

// FormatSeconds renders a duration in seconds with an adaptive unit.
func FormatSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-6:
		return fmt.Sprintf("%.1fns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.2fs", s)
	case s < 7200:
		return fmt.Sprintf("%.1fmin", s/60)
	default:
		return fmt.Sprintf("%.1fh", s/3600)
	}
}

// Pow2Range returns {from, 2·from, ..., to} (inclusive when to is a
// power-of-two multiple of from).
func Pow2Range(from, to int) []int {
	var out []int
	for v := from; v <= to; v *= 2 {
		out = append(out, v)
	}
	return out
}
