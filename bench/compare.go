package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one end-to-end metric on one workload, b against a.
const (
	verdictWithin     = "within-bound"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

func loadSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// judge compares b's runs of one metric with a's, using only the metric's
// bound. The change is (median b - median a) / median a, signed so that
// positive is worse. When either side's own spread is wider than the bound
// the medians cannot tell a regression from noise: unresolved — unless
// every run of one side beats every run of the other, or the metric is
// judged on its medians alone (mediansOnly: setup_s, a fraction of a second
// measured three times a run, which the acceptance procedure exempts from
// the spread rule too).
func judge(a, b []float64, lowerIsBetter, mediansOnly bool, bound float64) (verdict string, worsening, spreadA, spreadB float64) {
	ma, mb := median(a), median(b)
	worsening = (mb - ma) / ma
	if !lowerIsBetter {
		worsening = -worsening
	}
	// A single run has no spread; it is judged on its value alone.
	spreadA, _ = spread(a)
	spreadB, _ = spread(b)

	sa, sb := sorted(a), sorted(b)
	disjointWorse := sb[0] > sa[len(sa)-1]
	disjointBetter := sb[len(sb)-1] < sa[0]
	if !lowerIsBetter {
		disjointWorse, disjointBetter = disjointBetter, disjointWorse
	}
	noisy := !mediansOnly && (spreadA > bound || spreadB > bound)
	switch {
	case worsening > bound && (!noisy || disjointWorse):
		return verdictWorse, worsening, spreadA, spreadB
	case worsening < -bound && (!noisy || disjointBetter):
		return verdictBetter, worsening, spreadA, spreadB
	case noisy:
		return verdictUnresolved, worsening, spreadA, spreadB
	default:
		return verdictWithin, worsening, spreadA, spreadB
	}
}

// compareSets prints, for every end-to-end metric on every workload, both
// medians, their ratio and a verdict; then checks that everything simulated
// — sim_digest and the count-kind layer metrics — is identical where both
// sets ran the same workload on the same seed. It returns false when any
// pairing is worse or unresolved or any simulated figure differs.
func compareSets(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (%d x %s, %s)\nb = %s (%d x %s, %s)\n",
		pathA, a.Host.NProc, a.Host.CPUModel, a.Host.GoVersion,
		pathB, b.Host.NProc, b.Host.CPUModel, b.Host.GoVersion)

	ok := true
	fmt.Fprintf(w, "%-12s %-24s %12s %12s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "b/a", "iqr a", "iqr b", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.byWorkload(false, m.Name)[wl.Name], b.byWorkload(false, m.Name)[wl.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if m.Bound == nil {
				return false, fmt.Errorf("BENCHMARK.json: end-to-end metric %s has no bound", m.Name)
			}
			verdict, _, sa, sb := judge(va, vb, m.Better == "lower", m.Name == "setup_s", *m.Bound)
			fmt.Fprintf(w, "%-12s %-24s %12.5g %12.5g %8.3fx %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d; base a)\n",
				wl.Name, m.Name, median(va), median(vb), median(vb)/median(va), 100*sa, 100*sb, 100**m.Bound,
				verdict, len(va), len(vb))
			if verdict == verdictWorse || verdict == verdictUnresolved {
				ok = false
			}
		}
	}

	// Everything simulated must be identical. Records pair up by
	// (workload, seed, traced).
	type key struct {
		workload string
		seed     uint64
		traced   bool
	}
	index := make(map[key]record)
	for _, r := range a.Records {
		index[key{r.Workload, r.Seed, r.Traced}] = r
	}
	counts := make(map[string]bool)
	for _, d := range perLayer {
		counts[d.Name] = d.Kind == kindCount
	}
	var diffs []string
	paired := 0
	for _, rb := range b.Records {
		ra, found := index[key{rb.Workload, rb.Seed, rb.Traced}]
		if !found {
			continue
		}
		paired++
		if ra.SimDigest != rb.SimDigest {
			diffs = append(diffs, fmt.Sprintf("%s seed %d: sim_digest %.12s… vs %.12s…", rb.Workload, rb.Seed, ra.SimDigest, rb.SimDigest))
		}
		for name, vb := range rb.Metrics {
			if counts[name] && ra.Metrics[name].Value != vb.Value {
				diffs = append(diffs, fmt.Sprintf("%s seed %d: %s %v vs %v", rb.Workload, rb.Seed, name, ra.Metrics[name].Value, vb.Value))
			}
		}
	}
	sort.Strings(diffs)
	fmt.Fprintf(w, "simulated statistics: %d record pairs on equal (workload, seed), %d differences\n", paired, len(diffs))
	for _, d := range diffs {
		fmt.Fprintln(w, "  differs:", d)
	}
	return ok && len(diffs) == 0, nil
}
