package main

import (
	"errors"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestPercentileRefusesThinTail: a p90 needs ten samples beyond it, which
// takes a hundred samples; one fewer and the helper says so (while still
// handing the value back for a caller that has to print something).
func TestPercentileRefusesThinTail(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort a copy
		}
		return xs
	}
	v, err := percentile(ramp(100), 0.90, minTail)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, nil", v, err)
	}
	v, err = percentile(ramp(99), 0.90, minTail)
	if !errors.Is(err, errThinTail) || v != 90 {
		t.Fatalf("p90 of 1..99 = %v, %v; want 90 with errThinTail (9 beyond)", v, err)
	}
	if _, err := percentile(ramp(99), 0.90, 0); err != nil {
		t.Fatalf("tail 0 must accept any sample count: %v", err)
	}
	if _, err := percentile(ramp(2000), 0.99, minTail); err != nil {
		t.Fatalf("p99 of 2000 has 20 beyond it: %v", err)
	}
	for _, p := range []float64{0, 1, -0.5, math.NaN()} {
		if _, err := percentile(ramp(100), p, 0); err == nil {
			t.Errorf("percentile accepted p=%v", p)
		}
	}
	if in := ramp(5); in[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(xs, n=4), which is what the acceptance procedure
// computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{11, 1, 7, 2, 4}, 1.5, 4, 9},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v (%v), want %v %v %v", c.in, q1, q2, q3, err, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles accepted a single sample")
	}
	s, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(s, 1) {
		t.Errorf("spread(1..10) = %v, %v; want (8.25-2.75)/5.5 = 1", s, err)
	}
}

func TestMetricDefsAreValid(t *testing.T) {
	if err := checkDefs(endToEnd, maxEndToEnd); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if err := checkDefs(perLayer, maxPerLayer); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	for _, bad := range [][]metricDef{
		{{Name: "has space"}},
		{{Name: ""}},
		{{Name: "-leading"}},
		{{Name: "a"}, {Name: "a"}},
		nil,
	} {
		if checkDefs(bad, maxEndToEnd) == nil {
			t.Errorf("checkDefs accepted %+v", bad)
		}
	}
	many := make([]metricDef, maxEndToEnd+1)
	for i := range many {
		many[i].Name = string(rune('a' + i))
	}
	if checkDefs(many, maxEndToEnd) == nil {
		t.Error("checkDefs accepted more metrics than the schema allows")
	}
	for _, d := range perLayer {
		if d.layer() == "" || d.Kind == "" || d.Moves == "" {
			t.Errorf("per-layer metric %q lacks a layer prefix, a kind or the metric it should move", d.Name)
		}
	}
}

func TestCheckEmitted(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	good := map[string]metricValue{"a": {1, "ms"}, "b": {2, "s"}}
	if err := checkEmitted(defs, good); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]map[string]metricValue{
		"missing":    {"a": {1, "ms"}},
		"extra":      {"a": {1, "ms"}, "b": {2, "s"}, "c": {3, "s"}},
		"wrong unit": {"a": {1, "s"}, "b": {2, "s"}},
		"NaN":        {"a": {math.NaN(), "ms"}, "b": {2, "s"}},
		"Inf":        {"a": {math.Inf(1), "ms"}, "b": {2, "s"}},
	} {
		if checkEmitted(defs, bad) == nil {
			t.Errorf("checkEmitted accepted a set with a %s metric", name)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", steady, steady, true, verdictWithin},
		{"5% slower, bound 10%", steady, scale(steady, 1.05), true, verdictWithin},
		{"20% slower", steady, scale(steady, 1.2), true, verdictWorse},
		{"20% faster", steady, scale(steady, 0.8), true, verdictBetter},
		{"20% more throughput", steady, scale(steady, 1.2), false, verdictBetter},
		{"20% less throughput", steady, scale(steady, 0.8), false, verdictWorse},
		{"noisy, overlapping", []float64{80, 100, 120, 90, 130, 70}, []float64{85, 105, 125, 95, 135, 75}, true, verdictUnresolved},
		{"noisy but every run slower", []float64{80, 100, 120, 90, 130, 70}, scale([]float64{80, 100, 120, 90, 130, 70}, 2), true, verdictWorse},
	} {
		if got, _, _, _ := judge(c.a, c.b, c.lower, false, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisyA, noisyB := []float64{80, 100, 120, 90, 130, 70}, []float64{85, 105, 125, 95, 135, 75}
	if got, _, _, _ := judge(noisyA, noisyB, true, true, 0.10); got != verdictWithin {
		t.Errorf("medians-only metric with overlapping noisy runs: %s, want %s", got, verdictWithin)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
