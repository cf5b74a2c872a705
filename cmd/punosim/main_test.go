package main

import (
	"strings"
	"testing"
)

func TestRunPrintsSummaryLine(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-workload", "kmeans", "-txper", "2", "-q", "-seed", "7"}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.HasPrefix(out.String(), "kmeans/Baseline: cycles=") {
		t.Fatalf("summary line missing or unstable:\n%s", out.String())
	}
}

// TestSchemeNameAnyCase resolves a non-paper scheme by an upper-cased name.
func TestSchemeNameAnyCase(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-workload", "kmeans", "-txper", "2", "-q", "-scheme", "PUNO-PUSH"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "kmeans/PUNO-Push: cycles=") {
		t.Fatalf("-scheme PUNO-PUSH did not run PUNO-Push:\n%s", out.String())
	}
}

func TestRunDetailedStats(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-workload", "kmeans", "-txper", "2", "-scheme", "puno"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"txGETX=", "abort causes:", "G/D="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("detailed output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsUnknownWorkloadAndScheme(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-workload", "nosuch"}, &out, &errb); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// The miss names the valid schemes (the one resolver, machine.SchemeByName).
	if err := run([]string{"-scheme", "nope"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), `unknown scheme "nope"`) || !strings.Contains(err.Error(), "PUNO-notify-only") {
		t.Fatalf("unknown scheme accepted, or the error does not list the valid names: %v", err)
	}
	if err := run([]string{"-bogusflag"}, &out, &errb); err == nil {
		t.Fatal("bogus flag accepted")
	}
}
