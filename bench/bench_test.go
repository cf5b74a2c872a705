package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickEnv sizes a run for the smoke tests: the same code paths as a real
// run, windows of a fraction of a second.
func quickEnv(t *testing.T, seed uint64) *env {
	t.Helper()
	return &env{seed: seed, workers: workerCount(), sz: quickSizes(0.3), outDir: t.TempDir(), log: io.Discard}
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json and the tables in
// metrics.go saying the same thing.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	spec, err := loadBenchSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, the program runs %v", names, workloadNames)
	}
	match := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go %s/%s/%s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in metrics.go (0 < bound <= 0.25)", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd, true)
	match("per_layer", spec.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
}

// layersOnlyOn says which workloads may report a non-zero value for the
// metrics of a layer the others never enter.
var layersOnlyOn = map[string][]string{
	"pdes":   {"sim_big64"},
	"runner": {"sweep_par"},
}

// TestSmokeEveryWorkload runs each workload untraced and traced at a
// fraction of a second with every correctness check on, and checks what the
// acceptance criteria say about the output's shape.
func TestSmokeEveryWorkload(t *testing.T) {
	commitRatio := make(map[string]float64)
	eventsPerCommit := make(map[string]float64)
	for _, name := range append(append([]string(nil), workloadNames...), extraWorkloads...) {
		t.Run(name, func(t *testing.T) {
			e := quickEnv(t, 1)
			r, err := runUntraced(e, name)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || r.SimDigest == "" {
				t.Fatalf("untraced: correct %v, %d of %d failed, digest %q, notes %v", r.Correct, r.Failed, r.Attempted, r.SimDigest, r.Notes)
			}
			for _, d := range endToEnd {
				if v := r.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v: an end-to-end metric is never 0", d.Name, v)
				}
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]metricValue
			}
			dec := json.NewDecoder(strings.NewReader(r.resultLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil ||
				len(line.Metrics) != len(endToEnd) {
				t.Errorf("result line %s: %v", r.resultLine(), err)
			}

			tr, err := runTraced(e, name)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct || tr.SimDigest != r.SimDigest {
				t.Fatalf("traced: correct %v, notes %v, digest %q vs untraced %q", tr.Correct, tr.Notes, tr.SimDigest, r.SimDigest)
			}
			value := func(metric string) float64 { return tr.Metrics[metric].Value }
			for _, d := range perLayer {
				v := value(d.Name)
				if only, scoped := layersOnlyOn[d.layer()]; scoped && d.Kind != kindKernel {
					if on := strings.Contains(strings.Join(only, ","), name); on != (v != 0) {
						t.Errorf("%s = %v on %s; its layer runs only on %v", d.Name, v, name, only)
					}
				}
				if d.Kind == kindKernel && !(v > 0) {
					t.Errorf("kernel %s = %v", d.Name, v)
				}
			}
			serves := strings.HasPrefix(name, "serve_")
			if got := value("serve.submitted") > 0; got != serves {
				t.Errorf("serve.submitted = %v on %s", value("serve.submitted"), name)
			}
			if name == "serve_warm" && (value("serve.runs") != 0 || value("serve.hit_ratio") != 1 || value("serve.http_overhead_us") <= 0) {
				t.Errorf("serve_warm: runs %v, hit_ratio %v, http_overhead_us %v", value("serve.runs"), value("serve.hit_ratio"), value("serve.http_overhead_us"))
			}
			if name == "serve_cold" && value("serve.runs") != value("serve.submitted") {
				t.Errorf("serve_cold: %v runs for %v submissions; the key cycle is not outrunning the LRU", value("serve.runs"), value("serve.submitted"))
			}
			if value("bench.trace_overhead_ratio") <= 0 || value("machine.run_ms") <= 0 || value("sim.events") <= 0 {
				t.Errorf("trace_overhead_ratio %v, machine.run_ms %v, sim.events %v", value("bench.trace_overhead_ratio"), value("machine.run_ms"), value("sim.events"))
			}
			commitRatio[name] = value("htm.commit_ratio")
			eventsPerCommit[name] = value("sim.events") / value("htm.commits")
			checkTraceFile(t, filepath.Join(e.outDir, "trace-"+name+".json"))
		})
	}
	// The contrast the benchmark exists for: the conflict machinery does
	// most of the work on one set and almost none on the other.
	if hc, lc := commitRatio["sim_hc16"], commitRatio["sim_lc16"]; !(hc < 0.3 && lc > 0.8) {
		t.Errorf("htm.commit_ratio: sim_hc16 %v (want < 0.3), sim_lc16 %v (want > 0.8)", hc, lc)
	}
	if hc, lc := eventsPerCommit["sim_hc16"], eventsPerCommit["sim_lc16"]; !(hc >= 5*lc) {
		t.Errorf("sim.events per commit: sim_hc16 %v, sim_lc16 %v (want at least 5x)", hc, lc)
	}
}

// checkTraceFile verifies that the spans of a trace file nest: a child lies
// within its parent and shares its op id.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 || f.Ops == 0 || len(f.SelfNsByName) == 0 {
		t.Fatalf("%s: %d spans, %d ops", path, len(f.Spans), f.Ops)
	}
	byID := make(map[int32]span, len(f.Spans))
	children := 0
	for _, s := range f.Spans {
		byID[s.ID] = s
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.Op != s.ID {
				t.Errorf("root span %d (%s) has op %d", s.ID, s.Name, s.Op)
			}
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %+v does not nest in its parent %+v", s, p)
		}
	}
	if children == 0 {
		t.Errorf("%s: no span has a parent", path)
	}
	for name, self := range f.SelfNsByName {
		if self < 0 {
			t.Errorf("self time of %s is negative: %v", name, self)
		}
	}
}

// TestSeedDecidesInputs: the same seed generates the same inputs (and so the
// same reference artifacts), another seed other ones.
func TestSeedDecidesInputs(t *testing.T) {
	digest := func(name string, seed uint64) string {
		w, err := newWorkload(name, quickEnv(t, seed))
		if err == nil {
			err = w.prepare()
		}
		if err != nil {
			t.Fatal(err)
		}
		return w.digest()
	}
	for _, name := range []string{"sim_lc16", "sim_big64", "serve_warm"} {
		a, again, b := digest(name, 7), digest(name, 7), digest(name, 8)
		if a == "" || a != again || a == b {
			t.Errorf("%s: seed 7 -> %.12s, again %.12s, seed 8 -> %.12s", name, a, again, b)
		}
	}
}

// TestCorruptedArtifactFailsTheRun: one wrong byte in what the service
// hands back and the command must exit non-zero with failed > 0.
func TestCorruptedArtifactFailsTheRun(t *testing.T) {
	for _, name := range []string{"serve_cold", "serve_warm"} {
		e := quickEnv(t, 1)
		var out bytes.Buffer
		if code := runOne(e, name, false, "", &out, io.Discard); code != 0 {
			t.Fatalf("%s: exit %d on a sound run:\n%s", name, code, out.String())
		}
		e.corruptFetch = true
		out.Reset()
		code := runOne(e, name, false, "", &out, io.Discard)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res record
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v\n%s", name, err, out.String())
		}
		if code == 0 || res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s with corrupted fetches: exit %d, correct %v, %d of %d failed", name, code, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestRunRejectsBadFlags: the command line is input from outside.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2", "-workload", "sim_lc16"},
		{"-seconds", "0", "-workload", "sim_lc16"},
		{"-workload", "no_such_workload", "-seconds", "0.1"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}

// TestCompareSets drives -compare over two small result sets.
func TestCompareSets(t *testing.T) {
	rec := func(workload string, seed uint64, p50 float64, digest string) record {
		m := make(map[string]metricValue)
		for _, d := range endToEnd {
			m[d.Name] = metricValue{100, d.Unit}
		}
		m["op_ms_p50"] = metricValue{p50, "ms"}
		return record{result: result{Correct: true, Attempted: 10, Metrics: m}, Workload: workload, Seed: seed, SimDigest: digest}
	}
	write := func(name string, recs ...record) string {
		raw, err := json.Marshal(resultSet{Records: recs})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", rec("sim_lc16", 1, 50, "d1"), rec("sim_lc16", 2, 51, "d2"), rec("sim_lc16", 3, 49, "d3"))
	same := write("b.json", rec("sim_lc16", 1, 50.5, "d1"), rec("sim_lc16", 2, 51.5, "d2"), rec("sim_lc16", 3, 49.5, "d3"))
	slower := write("c.json", rec("sim_lc16", 1, 70, "d1"), rec("sim_lc16", 2, 71, "d2"), rec("sim_lc16", 3, 69, "d3"))
	drifted := write("d.json", rec("sim_lc16", 1, 50, "d1"), rec("sim_lc16", 2, 51, "other"), rec("sim_lc16", 3, 49, "d3"))

	for _, c := range []struct {
		b    string
		ok   bool
		says string
	}{
		{same, true, verdictWithin},
		{slower, false, verdictWorse},
		{drifted, false, "sim_digest"},
	} {
		var out bytes.Buffer
		ok, err := compareSets(&out, "", a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.says) {
			t.Errorf("compare(a, %s) = %v, want %v and %q in:\n%s", filepath.Base(c.b), ok, c.ok, c.says, out.String())
		}
	}
}
