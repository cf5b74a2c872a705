package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb strings.Builder
	err := run([]string{"-exp", "table2", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb)
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
