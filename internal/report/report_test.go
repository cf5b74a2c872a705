package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// All data lines equal width (aligned columns).
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("header/separator misaligned:\n%s", out)
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`x,y`, `say "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Fatalf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"say ""hi"""`) {
		t.Fatalf("quote cell not escaped: %s", csv)
	}
}

func TestCell(t *testing.T) {
	if Cell(1.23456) != "1.235" {
		t.Fatalf("Cell(float) = %q", Cell(1.23456))
	}
	if Cell(math.NaN()) != "n/a" {
		t.Fatalf("Cell(NaN) = %q", Cell(math.NaN()))
	}
}

func TestMeans(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) has a value")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram("fig3", []uint64{0, 50, 0, 0, 0, 50})
	if !strings.Contains(out, "  1:   50.0%") || !strings.Contains(out, "  5:   50.0%") {
		t.Fatalf("histogram format wrong:\n%s", out)
	}
	if strings.Contains(out, "  0:") || strings.Contains(out, "  2:") {
		t.Fatalf("empty buckets should be skipped:\n%s", out)
	}
	empty := Histogram("none", nil)
	if !strings.Contains(empty, "(empty)") {
		t.Fatal("empty histogram not flagged")
	}
}
