// Package report renders experiment results as aligned ASCII tables, CSV
// and histograms, with the arithmetic mean the paper's figures use. A value
// that does not exist is NaN and prints as n/a.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table accumulates rows with a fixed header and renders aligned text or
// CSV.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable returns an empty table.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row of formatted cells (Cell formats a number).
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Cell formats one number for a table cell; NaN is n/a.
func Cell(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoting cells that
// contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Mean returns the arithmetic mean; a mean over nothing has no value (NaN).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Histogram renders a dense count histogram (h[k] = count for key k) as a
// "k: count (bar)" block in key order, skipping empty buckets — the Fig. 3
// presentation. The rendering is byte-identical to the former map-keyed
// version: slice index order is the sorted key order.
func Histogram(title string, h []uint64) string {
	var total uint64
	for _, v := range h {
		total += v
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	if total == 0 {
		b.WriteString("(empty)\n")
		return b.String()
	}
	for k, v := range h {
		if v == 0 {
			continue
		}
		frac := float64(v) / float64(total)
		bar := strings.Repeat("#", int(frac*50+0.5))
		fmt.Fprintf(&b, "%3d: %6.1f%% %s\n", k, 100*frac, bar)
	}
	return b.String()
}
