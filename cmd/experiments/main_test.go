package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestTable2NeedsNoSimulation(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-exp", "table2"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "== Table II — system configuration ==\n") {
		t.Fatalf("Table II header missing:\n%s", out.String())
	}
}

func TestTable1SmallSweep(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-exp", "table1", "-scale", "0.05"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "Table I — benchmark abort rates (baseline)") {
		t.Fatalf("Table I missing:\n%s", out.String())
	}
	for _, wl := range []string{"bayes", "intruder", "vacation"} {
		if !strings.Contains(out.String(), wl) {
			t.Errorf("Table I missing workload %s", wl)
		}
	}
	if !strings.Contains(errb.String(), "sweep done in") {
		t.Errorf("progress line missing from stderr: %s", errb.String())
	}
}

func TestCSVOutput(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-exp", "table2", "-csv"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "unit,value") {
		t.Fatalf("CSV header missing:\n%s", out.String())
	}
	// -csv is honoured at any seed count.
	out.Reset()
	if err := run([]string{"-exp", "fig13", "-csv", "-seeds", "1,2", "-scale", "0.03"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "workload,Baseline,Backoff,RMW-Pred,PUNO\nbayes,1.000±0.000,") {
		t.Fatalf("two-seed fig13 is not CSV:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-exp", "signatures", "-csv", "-scale", "0.03"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "point,cycles,aborts,abort %,false %,unnecessary,traffic\nexact sets,") {
		t.Fatalf("signatures ablation is not CSV:\n%s", out.String())
	}
}

func TestEnsembleSeeds(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-exp", "fig10", "-seeds", "1,2", "-scale", "0.03", "-parallel", "2"}, &out, &errb)
	if err != nil {
		t.Fatalf("ensemble run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "mean±stddev over 2 seeds") {
		t.Fatalf("ensemble title missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "±") || !strings.Contains(out.String(), "mean(high-cont)") {
		t.Fatalf("ensemble cells missing:\n%s", out.String())
	}

	// Every -exp value works at any seed count, and -exp all drops nothing.
	for _, tc := range []struct {
		exp  string
		want []string
	}{
		{"table1", []string{"Table I — benchmark abort rates (baseline) (mean over 2 seeds)"}},
		{"summary", []string{"== Headline summary", "high-contention: aborts"}},
		{"all", []string{"Table I —", "Table II —", "Fig. 2 —", "Fig. 3 —", "Fig. 10 —", "Fig. 11 —",
			"Fig. 12 —", "Fig. 13 —", "Fig. 14 —", "Table III —", "== Headline summary"}},
	} {
		out.Reset()
		if err := run([]string{"-exp", tc.exp, "-seeds", "1,2", "-scale", "0.03"}, &out, &errb); err != nil {
			t.Fatalf("-exp %s at two seeds: %v", tc.exp, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("-exp %s at two seeds: %q missing:\n%s", tc.exp, w, out.String())
			}
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-seeds", "1,x"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "bad seed") {
		t.Fatalf("bad seed list accepted: %v", err)
	}
	if err := run([]string{"-seed", "1"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "-seed") {
		t.Fatalf("-seed (folded into -seeds) accepted: %v", err)
	}
	if err := run([]string{"-bogus"}, &out, &errb); err == nil {
		t.Fatal("bogus flag accepted")
	}
}

func TestUnknownExpAndWorkload(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-exp", "nosuch", "-scale", "0.02"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "unknown -exp") || !strings.Contains(err.Error(), "signatures") {
		t.Fatalf("unknown -exp: err %v, want one listing the valid names", err)
	}
	if out.Len() != 0 || errb.Len() != 0 {
		t.Fatalf("unknown -exp ran something: stdout %q, stderr %q", out.String(), errb.String())
	}
	if err := run([]string{"-exp", "validity", "-workload", "nosuch"}, &out, &errb); err == nil {
		t.Fatal("unknown -workload accepted")
	}
	if err := run([]string{"-exp", "fig10", "-workload", "kmeans"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "only to the ablations") {
		t.Fatalf("-workload on a paper experiment: %v", err)
	}
}

// Every ablation prints its one table with a row per point, and at two seeds
// every cell is mean±stddev.
func TestAblations(t *testing.T) {
	for _, a := range puno.Ablations() {
		t.Run(a.Name, func(t *testing.T) {
			var out, errb strings.Builder
			if err := run([]string{"-exp", a.Name, "-scale", "0.03", "-seeds", "1,2"}, &out, &errb); err != nil {
				t.Fatalf("run: %v (stderr: %s)", err, errb.String())
			}
			title := "== " + a.Title + " on " + a.Workload + " (mean±stddev over 2 seeds) ==\n"
			if !strings.HasPrefix(out.String(), title) {
				t.Fatalf("title %q missing:\n%s", title, out.String())
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if len(lines) != 3+len(a.Points) {
				t.Fatalf("%d lines, want title, header, rule and %d points:\n%s", len(lines), len(a.Points), out.String())
			}
			for i, p := range a.Points {
				row := lines[3+i]
				if !strings.HasPrefix(row, p.Label+" ") || strings.Count(row, "±") != 6 {
					t.Errorf("row for %q is not six mean±stddev cells: %q", p.Label, row)
				}
			}
		})
	}
}

func TestAblationParallelMatchesSerial(t *testing.T) {
	args := func(par string) []string {
		return []string{"-exp", "schemes", "-workload", "kmeans", "-scale", "0.01", "-seeds", "1,2", "-parallel", par}
	}
	var serial, parallel strings.Builder
	if err := run(args("1"), &serial, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if err := run(args("4"), &parallel, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("parallel ablation output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// -trace writes one loadable event trace per point and seed, prints the same
// table as the untraced run, and the traces diff cleanly: same-scheme points
// are identical across runs, different-scheme points diverge.
func TestTraceFlagWritesEventTraces(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "schemes", "-workload", "kmeans", "-scale", "0.01", "-seeds", "1"}
	var traced, plain strings.Builder
	if err := run(append(args, "-trace", dir), &traced, &strings.Builder{}); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if err := run(append(args, "-parallel", "1"), &plain, &strings.Builder{}); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if traced.String() != plain.String() {
		t.Fatalf("tracing changed the table:\n--- traced ---\n%s--- plain ---\n%s",
			traced.String(), plain.String())
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(puno.AllSchemes()) {
		t.Fatalf("wrote %d trace files, want one per scheme: %v", len(entries), entries)
	}
	load := func(name string) *puno.EventTrace {
		t.Helper()
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		et, err := puno.LoadEventTrace(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return et
	}
	baseline := load("00-baseline-seed1.evt")
	punoTr := load("03-puno-seed1.evt")
	if len(baseline.Events) == 0 || len(punoTr.Events) == 0 {
		t.Fatal("empty event traces written")
	}
	if _, ok := puno.FirstDivergence(baseline, punoTr); !ok {
		t.Error("baseline and PUNO points produced identical event streams")
	}

	// A second traced run reproduces the first byte for byte.
	dir2 := t.TempDir()
	if err := run(append(args, "-trace", dir2), &strings.Builder{}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dir, "00-baseline-seed1.evt"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir2, "00-baseline-seed1.evt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("re-running the traced ablation changed the trace bytes")
	}
}

func TestSanitizeLabel(t *testing.T) {
	cases := map[string]string{
		"Baseline":          "baseline",
		"timeout 2x avg tx": "timeout-2x-avg-tx",
		"4x4 PUNO":          "4x4-puno",
	}
	for in, want := range cases {
		if got := sanitizeLabel(in); got != want {
			t.Errorf("sanitizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	checkProfilesWritten(t, "-exp", "table2")
}

// The profiles cover a real run (an ablation, whose samples carry per-run
// pprof labels), not only flag parsing.
func TestAblationProfileFlagsWriteFiles(t *testing.T) {
	checkProfilesWritten(t, "-exp", "schemes", "-workload", "kmeans", "-scale", "0.01", "-parallel", "1")
}

// checkProfilesWritten runs args with -cpuprofile and -memprofile and
// requires both files to be written and non-empty.
func checkProfilesWritten(t *testing.T, args ...string) {
	t.Helper()
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb strings.Builder
	err := run(append(args, "-cpuprofile", cpu, "-memprofile", mem), &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s not written: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

func TestProfileFlagBadPath(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-exp", "table2", "-cpuprofile", t.TempDir() + "/no/such/dir/cpu.pprof"}, &out, &errb)
	if err == nil {
		t.Fatal("unwritable -cpuprofile path accepted")
	}
}
