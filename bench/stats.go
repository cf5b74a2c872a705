package main

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a p90
// with three samples above it is three outliers, not a percentile.
const minTail = 10

// errThinTail is returned (with the value) by percentile when fewer than
// the required samples lie beyond the requested rank.
var errThinTail = errors.New("too few samples beyond the percentile")

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles when even), NaN
// for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p'th percentile of xs (0 < p < 1).
// It refuses — returns the value together with errThinTail — when fewer
// than tail samples lie strictly beyond the chosen rank; the caller decides
// whether a thin-tailed value may still be shown.
func percentile(xs []float64, p float64, tail int) (float64, error) {
	if len(xs) == 0 || !(p > 0 && p < 1) {
		return math.NaN(), fmt.Errorf("percentile(%d samples, p=%v): out of range", len(xs), p)
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := len(s) - 1 - k; beyond < tail {
		return s[k], fmt.Errorf("p%g of %d samples has %d beyond it, need %d: %w",
			100*p, len(s), beyond, tail, errThinTail)
	}
	return s[k], nil
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method), so the
// compare tool's spreads are the ones the acceptance procedure computes.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", len(xs))
	}
	s := sorted(xs)
	ld := len(s)
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3), nil
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, errors.New("spread: median is 0")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Limits BENCHMARK.json's schema puts on the two metric lists.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

// checkDefs validates one metric list: well-formed unique names within the
// schema's cap.
func checkDefs(defs []metricDef, limit int) error {
	if len(defs) == 0 || len(defs) > limit {
		return fmt.Errorf("%d metrics, want 1..%d", len(defs), limit)
	}
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !metricNameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ (<= 64)", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// checkEmitted verifies that got holds exactly the metrics of defs — none
// missing, none extra — each finite and in its declared unit.
func checkEmitted(defs []metricDef, got map[string]metricValue) error {
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %q not emitted", d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %q is not finite (%v)", d.Name, v.Value)
		case v.Unit != d.Unit:
			return fmt.Errorf("metric %q emitted in %q, defined in %q", d.Name, v.Unit, d.Unit)
		}
	}
	if len(got) != len(defs) {
		known := make(map[string]bool, len(defs))
		for _, d := range defs {
			known[d.Name] = true
		}
		for name := range got {
			if !known[name] {
				return fmt.Errorf("metric %q emitted but not defined", name)
			}
		}
	}
	return nil
}
